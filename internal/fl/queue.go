package fl

import (
	"fmt"

	"github.com/spyker-fl/spyker/internal/simulation"
)

// ProcQueue models the single-threaded processing loop of a server: jobs
// (client updates, server models, token handling) are served in arrival
// order, each occupying the server for its processing delay (paper
// Tab. 3). The jobs-in-system count is reported to the observer, which is
// how the update-queueing behaviour of paper Fig. 9 is measured.
type ProcQueue struct {
	sim       *simulation.Sim
	server    int
	observer  Observer
	busyUntil float64
	pending   int

	// done is the handler of every completion; jobs are the submitted Jobs
	// not yet completed, oldest first. Completion times never decrease in
	// submit order, so the completion that fires is the oldest job's.
	done simulation.Kind
	jobs simulation.FIFO[simulation.Job]
}

// NewProcQueue creates the processing queue of one server.
func NewProcQueue(sim *simulation.Sim, server int, obs Observer) *ProcQueue {
	if obs == nil {
		obs = NopObserver{}
	}
	q := &ProcQueue{sim: sim, server: server, observer: obs}
	q.done = sim.Handle(q.complete)
	return q
}

// Submit enqueues a job that occupies the server for proc seconds; j runs
// (Sim.Do) at the job's completion time, i.e. all state changes the job
// makes become visible when the server has actually finished processing
// it. A negative or NaN proc panics: it would let a later job complete
// before an earlier one.
func (q *ProcQueue) Submit(proc float64, j simulation.Job) {
	if !(proc >= 0) {
		panic(fmt.Sprintf("fl: processing delay %v is negative or NaN", proc))
	}
	now := q.sim.Now()
	q.pending++
	q.observer.QueueLength(now, q.server, q.pending)

	start := now
	if q.busyUntil > start {
		start = q.busyUntil
	}
	done := start + proc
	q.busyUntil = done
	q.jobs.Push(j)
	q.sim.PostAt(done, simulation.Job{Kind: q.done})
}

// complete is the handler of the oldest job's completion.
func (q *ProcQueue) complete(int) {
	j := q.jobs.Pop()
	q.pending--
	q.observer.QueueLength(q.sim.Now(), q.server, q.pending)
	q.sim.Do(j)
}
