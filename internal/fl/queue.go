package fl

import "github.com/spyker-fl/spyker/internal/simulation"

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
}

// NewProcQueue creates the processing queue of one server.
func NewProcQueue(sim *simulation.Sim, server int, obs Observer) *ProcQueue {
	if obs == nil {
		obs = NopObserver{}
	}
	return &ProcQueue{sim: sim, server: server, observer: obs}
}

// Submit enqueues a job that occupies the server for proc seconds; fn runs
// at the job's completion time, i.e. all state changes the job makes
// become visible when the server has actually finished processing it.
func (q *ProcQueue) Submit(proc float64, fn func()) {
	now := q.sim.Now()
	q.pending++
	q.observer.QueueLength(now, q.server, q.pending)

	start := now
	if q.busyUntil > start {
		start = q.busyUntil
	}
	done := start + proc
	q.busyUntil = done
	q.sim.ScheduleAt(done, func() {
		q.pending--
		q.observer.QueueLength(q.sim.Now(), q.server, q.pending)
		fn()
	})
}
