// Package simulation implements the discrete-event simulator that the
// federated-learning emulation runs on. Time is virtual: handlers execute
// instantaneously in wall-clock terms (though they may do real model
// training) and advance the clock only through scheduled delays, exactly
// like the paper's emulation, which maintains per-node logical time and
// advances it by benchmarked computation and network delays.
//
// Events run one at a time on the goroutine that calls Run, in an order
// that is a function of the scheduling calls alone. The one thing that may
// run elsewhere is the body of a Task a handler has detached (detach.go):
// work whose result only a later event needs — a client's local training,
// joined when its update is delivered, or a Spyker server's merges of
// client updates, joined when that server's model or a reply still being
// written is next read — and which that event joins before it looks.
// Virtual time never depended on when such work executes — only on the
// delay the model schedules for it — so the event order, and with it every
// seeded result, is the same whether a task ran on a worker, on the loop,
// early or late.
//
// An event is data, not a closure: a time, a sequence number and a Job —
// a handler Kind, registered once by the package that owns it (Handle),
// and one integer. The data a message or a job carries sits in that
// package's records (a Slab, addressed by the Job's integer) or in a FIFO
// kept beside it, which two orderings make sound:
//
//   - one directed link of the geo network delivers in send order: an
//     arrival is never earlier than the link's previous one, a drop is
//     never scheduled, and a duplicate lands right after its original;
//   - one processing queue (fl.ProcQueue) completes in submit order: a
//     job's completion time max(now, busy) + proc never decreases, since
//     proc is never negative.
//
// Equal times are broken by the sequence number, which is handed out in
// scheduling order, so each link and each queue pops the records it
// pushed in the order it pushed them.
//
// Schedule and ScheduleAt keep the closure form for the control plane
// alone: the Spyker recovery ticks, the fault plan's events and periodic
// checkpoints, a restarted or re-homed server's re-engagement grace, and
// Sync-Spyker's round timer — events with no data path through them.
package simulation

import (
	"fmt"
	"math"
	"sync"
)

// Kind names an event handler registered with Handle.
type Kind uint32

// Job is what an event does: call the handler of Kind with Arg, which
// addresses the event's data — typically a record index in the owning
// package's Slab.
type Job struct {
	Kind Kind
	Arg  int
}

// funcKind is the handler Sim registers first: it runs the closure of a
// Schedule call.
const funcKind Kind = 0

// event is one scheduled Job in three words — the heap moves events by
// value — with the Kind in the low kindBits of the sequence word.
type event struct {
	time float64 // seconds of virtual time
	seq  uint64  // schedule order (the tie-breaker) << kindBits | Kind
	arg  int
}

// kindBits bounds the handlers a Sim can register to 1<<kindBits, and the
// events it can schedule to 1<<(64-kindBits).
const kindBits = 16

// before is the queue's order: earlier time first, schedule order among
// equal times (seq's high bits, unique per event), so the order is total
// and the sequence of pops is a function of the pushes alone, whatever the
// heap's shape.
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
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
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

	// handlers is indexed by Kind; fns holds the closures of pending
	// Schedule events.
	handlers []func(arg int)
	fns      Slab[func()]

	// The detached-task pool (detach.go). running is true inside Run;
	// tasks and the goroutines counted by workers exist from the first
	// Detach of a Run until that Run returns. held are the tasks detached
	// between Runs, handed to the pool when the next Run starts.
	running bool
	tasks   chan *Task
	workers sync.WaitGroup
	held    []*Task
}

// New creates an empty simulator at time 0.
func New() *Sim {
	s := &Sim{}
	s.Handle(s.runFunc)
	return s
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Processed reports how many events have executed so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Handle registers h and returns the Kind that names it. Packages register
// their handlers once, when they build the actors that schedule them.
func (s *Sim) Handle(h func(arg int)) Kind {
	if len(s.handlers) == 1<<kindBits {
		panic("simulation: too many handlers")
	}
	s.handlers = append(s.handlers, h)
	return Kind(len(s.handlers) - 1)
}

// Do runs j's handler now, on the calling handler's turn: how a link or a
// queue hands the Job it kept in its FIFO to the Job's owner.
func (s *Sim) Do(j Job) { s.handlers[j.Kind](j.Arg) }

// Post schedules j after delay seconds of virtual time. Negative or NaN
// delays are an error in the caller; they panic to surface the bug
// immediately.
func (s *Sim) Post(delay float64, j Job) {
	if !(delay >= 0) {
		panic(fmt.Sprintf("simulation: negative or NaN delay %v", delay))
	}
	s.PostAt(s.now+delay, j)
}

// PostAt schedules j at absolute virtual time t, which must not be in the
// past nor NaN: a NaN key compares false both ways and would corrupt the
// heap order without a trace.
func (s *Sim) PostAt(t float64, j Job) {
	if !(t >= s.now) {
		panic(fmt.Sprintf("simulation: schedule at %v before now %v", t, s.now))
	}
	s.seq++
	s.queue.push(event{time: t, seq: s.seq<<kindBits | uint64(j.Kind), arg: j.Arg})
}

// Schedule runs fn after delay seconds of virtual time, with Post's
// checks. It is the control plane's form (see the package comment).
func (s *Sim) Schedule(delay float64, fn func()) {
	s.Post(delay, s.funcJob(fn))
}

// ScheduleAt runs fn at absolute virtual time t, with PostAt's checks.
func (s *Sim) ScheduleAt(t float64, fn func()) {
	s.PostAt(t, s.funcJob(fn))
}

// funcJob parks fn until its event runs.
func (s *Sim) funcJob(fn func()) Job {
	i, slot := s.fns.New()
	*slot = fn
	return Job{Kind: funcKind, Arg: i}
}

// runFunc is funcKind's handler. The slot is freed before fn runs, so a
// closure that ran is not kept reachable by the simulator.
func (s *Sim) runFunc(i int) {
	fn := *s.fns.At(i)
	s.fns.Free(i)
	fn()
}

// Stop makes Run return after the currently executing event completes.
// Events still queued stay queued: a later Run call resumes and drains
// them in order.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events in timestamp order until the queue drains, the
// horizon is passed, or Stop is called. It returns the final virtual time.
// Events scheduled exactly at the horizon still run; events beyond it stay
// queued. Tasks detached since the last Run go to the workers first.
// Every task detached along the way has finished when Run returns.
func (s *Sim) Run(horizon float64) float64 {
	s.stopped = false
	s.running = true
	defer s.finish()
	s.release()
	for len(s.queue) > 0 && !s.stopped {
		if s.queue[0].time > horizon {
			break
		}
		e := s.queue.pop()
		s.now = e.time
		s.processed++
		s.handlers[e.seq&(1<<kindBits-1)](e.arg)
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
