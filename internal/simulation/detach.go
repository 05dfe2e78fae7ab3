package simulation

import (
	"sync"
	"sync/atomic"
)

// detachWorkers is how many goroutines run detached tasks beside the event
// loop. It is a constant, not the machine's core count: where the code
// runs must not decide how the work is cut (internal/lint's paridiom
// rule). One is not enough — the loop then stalls whenever the task it
// needs next is the one mid-run.
const detachWorkers = 4

// detachQueue bounds the tasks waiting for a worker. A round-based
// protocol detaches one task per client from a single event; past this
// many the loop runs the rest itself instead of queueing without limit.
const detachQueue = 256

// A Task's state. Whoever moves it out of taskQueued runs Fn, so every
// Detach is run exactly once however many times the task sits in the
// queue.
const (
	taskIdle    uint32 = iota // not detached, or joined
	taskQueued                // waiting for a worker, or for Join to steal it
	taskRunning               // claimed by a worker; done counts it
)

// Task is a piece of work whose result only a later event needs: Detach
// hands it to a worker, Join makes its effects visible. It is meant to be
// embedded in its owner and reused, one Detach/Join cycle after another —
// a cycle allocates nothing. The zero value with Fn set is ready; a Task
// must not be copied after its first Detach. Its owners are fl.SimClient
// (local training) and spyker.ServerCore (the chain of client merges, which
// the core extends while its task is at work); an owner whose result has
// several readers joins at every one of them.
type Task struct {
	// Fn is the work. While the task is detached it may run on a goroutine
	// other than the event loop's, concurrently with handlers and with
	// other tasks: it must touch only state that nothing else reads or
	// writes before Join, and data nobody writes. Set it once, before the
	// first Detach.
	Fn func()

	state atomic.Uint32
	done  sync.WaitGroup
}

// Detach starts t.Fn off the event loop; it must be called from a handler
// (or between Run calls) and t must be idle, i.e. every earlier Detach has
// been joined. Between Runs the task is held and goes to the workers when
// the next Run starts them — so the first training of every client, which
// an algorithm's Build detaches, runs beside the event loop rather than
// one after another in Build. With detachQueue tasks already waiting, Fn
// runs right here instead: detaching is an optimisation the caller cannot
// observe, since nothing may look at Fn's effects before Join either way.
func (s *Sim) Detach(t *Task) {
	if t.state.Load() != taskIdle {
		panic("simulation: Detach of a task that was not joined")
	}
	t.done.Add(1)
	t.state.Store(taskQueued)
	if !s.running {
		s.held = append(s.held, t)
		return
	}
	s.enqueue(t)
}

// enqueue hands a queued task to the workers, starting them on a Run's
// first task.
func (s *Sim) enqueue(t *Task) {
	if s.tasks == nil {
		s.startWorkers()
	}
	select {
	case s.tasks <- t:
	default:
		// Full. Run it here — unless a worker has just claimed t through
		// an entry an earlier, stolen cycle left in the queue, in which
		// case it is off the loop after all.
		t.steal()
	}
}

// release starts a Run by handing the tasks detached since the last one to
// the workers. A held task a Join has stolen meanwhile is skipped; one
// queued again since is handed over once per entry, which the workers
// tolerate as they tolerate a stolen cycle's entry.
func (s *Sim) release() {
	for i, t := range s.held {
		s.held[i] = nil
		if t.state.Load() == taskQueued {
			s.enqueue(t)
		}
	}
	s.held = s.held[:0]
}

// Join returns once the last Detach of t has run to completion, with
// everything Fn wrote visible to the caller. It is a stealing join: a task
// no worker has claimed yet — one held for the next Run included — runs on
// the caller, so Join waits only for a task that is mid-run. On an idle
// task it is a no-op, one atomic load, which is why an owner that may never
// be detached (a ServerCore outside the simulator) can join from any
// goroutine that serializes its use.
// Otherwise, like Detach, it belongs to the event-loop goroutine.
func (t *Task) Join() {
	if t.state.Load() == taskIdle || t.steal() {
		return
	}
	t.done.Wait()
	t.state.Store(taskIdle)
}

// steal runs a still-unclaimed task on the caller and reports whether it
// did. The entry stays in the queue; the worker that pops it finds the
// task no longer queued — or queued again by a later Detach, which it
// then serves.
func (t *Task) steal() bool {
	if !t.state.CompareAndSwap(taskQueued, taskIdle) {
		return false
	}
	t.done.Done()
	t.Fn()
	return true
}

// startWorkers brings up the pool on the first task of a Run; finish
// takes it down.
func (s *Sim) startWorkers() {
	s.tasks = make(chan *Task, detachQueue)
	s.workers.Add(detachWorkers)
	for w := 0; w < detachWorkers; w++ {
		go s.work(s.tasks)
	}
}

// work is one worker. It ends when Run closes the queue, and finish waits
// for it, so no goroutine outlives the Run that started it. Workers share
// no result: each task writes its owner's state and nothing is combined
// across them, so there is no order of completion for an outcome to depend
// on.
func (s *Sim) work(tasks <-chan *Task) {
	defer s.workers.Done()
	for t := range tasks {
		if t.state.CompareAndSwap(taskQueued, taskRunning) {
			t.Fn()
			t.done.Done()
		}
	}
}

// finish ends a Run: the workers drain the queue and exit, so every task
// detached during the Run — joined or not — has finished, and between Run
// calls nothing runs anywhere.
func (s *Sim) finish() {
	s.running = false
	if s.tasks != nil {
		close(s.tasks)
		s.workers.Wait()
		s.tasks = nil
	}
}
