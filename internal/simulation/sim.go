// Package simulation implements the discrete-event simulator that the
// federated-learning emulation runs on. Time is virtual: handlers execute
// instantaneously in wall-clock terms (though they may do real model
// training) and advance the clock only through scheduled delays, exactly
// like the paper's emulation, which maintains per-node logical time and
// advances it by benchmarked computation and network delays.
//
// Events run one at a time on the goroutine that calls Run, in an order
// that is a function of the Schedule calls alone. The one thing that may
// run elsewhere is the body of a Task a handler has detached (detach.go):
// work whose result only a later event needs — a client's local training,
// joined when its update is delivered, or a Spyker server's merge of a
// client update, joined when that server's model or that reply is next
// read — and which that event joins before it looks. Virtual time never
// depended on when such work executes — only on the delay the model
// schedules for it — so the event order, and with it every seeded result,
// is the same whether a task ran on a worker, on the loop, early or late.
package simulation

import (
	"fmt"
	"math"
	"sync"
)

// Event is a scheduled callback.
type event struct {
	time float64 // seconds of virtual time
	seq  uint64  // tie-breaker preserving schedule order
	fn   func()
}

// before is the queue's order: earlier time first, schedule order among
// equal times. seq is unique, so the order is total and the sequence of
// pops is a function of the pushes alone, whatever the heap's shape.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of event values, written out instead of
// going through container/heap: one event per update-path message makes
// this the busiest structure of a simulated run, and the generic heap
// costs a heap object per event, a boxing of every pushed and popped
// value, and an interface call per comparison and swap.
type eventQueue []event

// push adds e, sifting the hole up from the new last slot.
func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

// pop removes and returns the least event; the queue must not be empty.
// The vacated last slot is zeroed so the backing array keeps no reference
// to a closure that already ran.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if child+1 < n && h[child+1].before(&h[child]) {
				child++
			}
			if !h[child].before(&last) {
				break
			}
			h[i] = h[child]
			i = child
		}
		h[i] = last
	}
	*q = h
	return top
}

// Sim is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all handlers run on the goroutine that calls Run, and
// every method belongs to that goroutine. The bodies of detached tasks
// (Detach) are the one exception: they may run on a worker goroutine while
// Run is in progress, and must keep to state of their own (see Task.Fn).
type Sim struct {
	now     float64
	seq     uint64
	queue   eventQueue
	stopped bool
	// processed counts events executed, useful for loop guards in tests.
	processed uint64

	// The detached-task pool (detach.go). running is true inside Run;
	// tasks and the goroutines counted by workers exist from the first
	// Detach of a Run until that Run returns.
	running bool
	tasks   chan *Task
	workers sync.WaitGroup
}

// New creates an empty simulator at time 0.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Processed reports how many events have executed so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Schedule runs fn after delay seconds of virtual time. Negative delays
// are an error in the caller; they panic to surface the bug immediately.
func (s *Sim) Schedule(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("simulation: negative or NaN delay %v", delay))
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time t, which must not be in the
// past.
func (s *Sim) ScheduleAt(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("simulation: schedule at %v before now %v", t, s.now))
	}
	s.seq++
	s.queue.push(event{time: t, seq: s.seq, fn: fn})
}

// Stop makes Run return after the currently executing event completes.
// Events still queued stay queued: a later Run call resumes and drains
// them in order.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events in timestamp order until the queue drains, the
// horizon is passed, or Stop is called. It returns the final virtual time.
// Events scheduled exactly at the horizon still run; events beyond it stay
// queued. Every task detached along the way has finished when Run returns.
func (s *Sim) Run(horizon float64) float64 {
	s.stopped = false
	s.running = true
	defer s.finish()
	for len(s.queue) > 0 && !s.stopped {
		if s.queue[0].time > horizon {
			break
		}
		e := s.queue.pop()
		s.now = e.time
		s.processed++
		e.fn()
	}
	if s.now < horizon && len(s.queue) == 0 && !math.IsInf(horizon, 1) {
		// A drained queue still advances the clock to the horizon so that
		// successive Run calls observe monotone time. Run(+Inf) means
		// "drain everything" and has no horizon to land on: the clock
		// stays at the last event, where later Schedule calls can use it.
		s.now = horizon
	}
	return s.now
}

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return len(s.queue) }
