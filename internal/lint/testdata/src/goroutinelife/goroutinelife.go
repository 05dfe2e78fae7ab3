// Package goroutinelife seeds goroutine-lifecycle violations: looping
// goroutines with no shutdown tie, a WaitGroup signal nobody waits on,
// a loop tied only to its own ticker or timer, and a reasonless waiver —
// next to the sanctioned shapes (WaitGroup with a visible Wait, captured
// done channel, range over an owner-closed channel, bounded bodies, and a
// reasoned //spyker:detached waiver).
package goroutinelife

import (
	"sync"
	"time"
)

type runner struct {
	wg   sync.WaitGroup
	done chan struct{}
	ch   chan int
}

// leak loops forever with nothing to stop it.
func (r *runner) leak() {
	go func() { // want `goroutine loops with no shutdown tie`
		for {
			time.Sleep(time.Millisecond)
		}
	}()
}

// tiedWG is the WaitGroup shape: Done in the body, Wait visible.
func (r *runner) tiedWG() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for i := 0; i < 10; i++ {
			time.Sleep(time.Millisecond)
		}
	}()
	r.wg.Wait()
}

var lone sync.WaitGroup

// noWait signals a WaitGroup the package never joins.
func noWait() {
	lone.Add(1)
	go func() { // want `goroutine signals WaitGroup lone but no Wait on lone is visible`
		defer lone.Done()
		for {
			time.Sleep(time.Millisecond)
		}
	}()
}

// tiedDone polls a captured done channel: close(r.done) stops it.
func (r *runner) tiedDone() {
	go func() {
		for {
			select {
			case <-r.done:
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}()
}

// drain ranges over a channel its owner closes.
func (r *runner) drain() {
	go func() {
		for v := range r.ch {
			_ = v
		}
	}()
}

// oneShot has no loop: it terminates by construction.
func (r *runner) oneShot() {
	go func() {
		r.ch <- 1
	}()
}

// localOnly makes its own channel inside the body; that is not a tie
// from the outside.
func localOnly() {
	go func() { // want `goroutine loops with no shutdown tie`
		own := make(chan int, 1)
		for {
			own <- 1
			<-own
		}
	}()
}

// ownTicker receives only from a ticker it started itself: nothing
// outside can stop it.
func ownTicker() {
	go func() { // want `goroutine loops with no shutdown tie`
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			<-tick.C
		}
	}()
}

// ownTimeout waits only on timers it starts itself.
func ownTimeout() {
	go func() { // want `goroutine loops with no shutdown tie`
		for {
			select {
			case <-time.After(time.Millisecond):
			case <-time.Tick(time.Second):
			}
		}
	}()
}

// tickedDone ticks until the captured done channel closes.
func (r *runner) tickedDone() {
	go func() {
		tick := time.NewTimer(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.done:
				return
			case <-tick.C:
				tick.Reset(time.Millisecond)
			}
		}
	}()
}

// waived documents why the goroutine outlives everything.
func (r *runner) waived() {
	//spyker:detached(debug listener is process-lifetime by design)
	go func() {
		for {
			time.Sleep(time.Second)
		}
	}()
}

// emptyReason waives without saying why.
func (r *runner) emptyReason() {
	//spyker:detached()
	go func() { // want `//spyker:detached waiver needs a non-empty reason`
		for {
			time.Sleep(time.Second)
		}
	}()
}

// loopWorker is judged through its same-package declaration.
func loopWorker() {
	for {
		time.Sleep(time.Millisecond)
	}
}

func spawnNamed() {
	go loopWorker() // want `goroutine loops with no shutdown tie`
}

// external launches a function this package cannot see into.
func external() {
	go time.Sleep(0) // want `goroutine runs a function defined outside this package`
}

type fakeSrv struct{}

func (fakeSrv) ListenAndServe() error { return nil }

// serveForever blocks in a serve entry point: loop-free, but unbounded.
func serveForever(s fakeSrv) {
	go func() { // want `goroutine blocks in ListenAndServe with no shutdown tie`
		_ = s.ListenAndServe()
	}()
}
