package fl

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/simulation"
)

func TestDefaultHyperMatchesPaper(t *testing.T) {
	h := DefaultHyper(100, 4)
	if h.HInter != 5 {
		t.Errorf("HInter = %v, want n_C/(5n) = 5", h.HInter)
	}
	if h.HIntra != 350 {
		t.Errorf("HIntra = %v, want 350", h.HIntra)
	}
	if h.Phi != 1.5 || h.EtaA != 0.6 || h.EtaServer != 0.6 {
		t.Error("Tab. 2 aggregation parameters wrong")
	}
	if h.Alpha != 0.5 {
		t.Errorf("FedAsync alpha = %v", h.Alpha)
	}
	if h.ProcSpyker != 0.002 || h.ProcFedAvg != 0.015 || h.ProcHier != 0.015 ||
		h.ProcFedAsync != 0.002 || h.ProcSyncSpyker != 0.002 {
		t.Error("Tab. 3 processing delays wrong")
	}
	if h.EtaMin != 1e-6 {
		t.Errorf("EtaMin = %v", h.EtaMin)
	}
}

func TestWireSizes(t *testing.T) {
	if got := ModelWireBytes(1000); got != 8064 {
		t.Errorf("ModelWireBytes = %d", got)
	}
	if got := TokenWireBytes(4); got != 48 {
		t.Errorf("TokenWireBytes = %d", got)
	}
	if AgeWireBytes <= 0 {
		t.Error("AgeWireBytes must be positive")
	}
}

func TestEnvValidate(t *testing.T) {
	sim := simulation.New()
	net := geo.NewNetwork(sim, geo.Config{})
	factory := func(int64) Model { return nil }

	env := &Env{Sim: sim, Net: net, NewModel: factory,
		Servers: []ServerSpec{{ID: 0, Clients: []int{0}}},
		Clients: []ClientSpec{{ID: 0, Server: 0}},
	}
	if err := env.Validate(); err != nil {
		t.Errorf("valid env rejected: %v", err)
	}
	if env.Observer == nil {
		t.Error("Validate must default the observer")
	}

	bad := &Env{Sim: sim, Net: net, NewModel: factory,
		Servers: []ServerSpec{{ID: 0, Clients: []int{5}}},
		Clients: []ClientSpec{{ID: 0, Server: 0}},
	}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range client reference accepted")
	}

	mismatch := &Env{Sim: sim, Net: net, NewModel: factory,
		Servers: []ServerSpec{{ID: 0, Clients: []int{0}}},
		Clients: []ClientSpec{{ID: 0, Server: 3}},
	}
	if err := mismatch.Validate(); err == nil {
		t.Error("client/server assignment mismatch accepted")
	}

	empty := &Env{Sim: sim, Net: net, NewModel: factory}
	if err := empty.Validate(); err == nil {
		t.Error("empty topology accepted")
	}
}

func TestEndpoints(t *testing.T) {
	env := &Env{
		Servers: []ServerSpec{{ID: 0, Region: geo.Paris}},
		Clients: []ClientSpec{{ID: 0, Region: geo.Sydney}},
	}
	se := env.ServerEndpoint(0)
	ce := env.ClientEndpoint(0)
	if se.Region != geo.Paris || ce.Region != geo.Sydney {
		t.Error("endpoint regions wrong")
	}
	if se.ID == ce.ID {
		t.Error("server and client endpoint IDs collide")
	}
}

type queueObs struct {
	samples []int
}

func (q *queueObs) ClientUpdateProcessed(float64, int, int, func() [][]float64) {}
func (q *queueObs) QueueLength(_ float64, _ int, l int) {
	q.samples = append(q.samples, l)
}

// onDone registers fn as a handler of sim and returns the Job that runs it.
func onDone(sim *simulation.Sim, fn func()) simulation.Job {
	return simulation.Job{Kind: sim.Handle(func(int) { fn() })}
}

// TestProcQueueRejectsBadDelays: a negative delay would let a job complete
// before one submitted earlier, breaking the queue's FIFO, and a NaN one
// would put a NaN key in the event heap.
func TestProcQueueRejectsBadDelays(t *testing.T) {
	for _, proc := range []float64{-1, -1e-300, math.Inf(-1), math.NaN()} {
		t.Run(fmt.Sprint(proc), func(t *testing.T) {
			sim := simulation.New()
			q := NewProcQueue(sim, 0, nil)
			defer func() {
				if recover() == nil {
					t.Errorf("Submit(%v) did not panic", proc)
				}
			}()
			q.Submit(proc, onDone(sim, func() {}))
		})
	}
}

// TestProcQueueCompletesInSubmitOrder: jobs of every delay, zero ones
// included, complete in the order they were submitted, each with its own
// Job.
func TestProcQueueCompletesInSubmitOrder(t *testing.T) {
	sim := simulation.New()
	q := NewProcQueue(sim, 0, nil)
	var got []int
	kind := sim.Handle(func(a int) { got = append(got, a) })
	delays := []float64{0, 0.5, 0, 0, 2, 0.25, 0}
	for i, d := range delays {
		sim.Schedule(0.1*float64(i%3), func() { q.Submit(d, simulation.Job{Kind: kind, Arg: i}) })
	}
	sim.Run(100)
	want := []int{0, 3, 6, 1, 4, 2, 5} // submit order: by schedule time, then schedule order
	if !reflect.DeepEqual(got, want) {
		t.Errorf("completed %v, want %v", got, want)
	}
}

func TestProcQueueSerializesJobs(t *testing.T) {
	sim := simulation.New()
	obs := &queueObs{}
	q := NewProcQueue(sim, 0, obs)

	var doneAt []float64
	for i := 0; i < 3; i++ {
		q.Submit(1.0, onDone(sim, func() { doneAt = append(doneAt, sim.Now()) }))
	}
	sim.Run(100)
	want := []float64{1, 2, 3}
	if len(doneAt) != 3 {
		t.Fatalf("completed %d jobs", len(doneAt))
	}
	for i := range want {
		if doneAt[i] != want[i] {
			t.Errorf("job %d completed at %v, want %v", i, doneAt[i], want[i])
		}
	}
	// The observer is told of every depth change — 1,2,3 on arrival, then
	// 2,1,0 on completion: Fig. 9 is drawn from exactly this sequence.
	if want := []int{1, 2, 3, 2, 1, 0}; !reflect.DeepEqual(obs.samples, want) {
		t.Errorf("queue samples = %v, want %v", obs.samples, want)
	}
}

func TestProcQueueIdleServerStartsImmediately(t *testing.T) {
	sim := simulation.New()
	q := NewProcQueue(sim, 0, nil)
	var at float64
	sim.Schedule(5, func() {
		q.Submit(0.5, onDone(sim, func() { at = sim.Now() }))
	})
	sim.Run(100)
	if at != 5.5 {
		t.Errorf("job completed at %v, want 5.5 (no phantom busy time)", at)
	}
}

func TestProcQueueZeroCost(t *testing.T) {
	sim := simulation.New()
	q := NewProcQueue(sim, 0, nil)
	ran := false
	q.Submit(0, onDone(sim, func() { ran = true }))
	sim.Run(1)
	if !ran {
		t.Error("zero-cost job did not run")
	}
}

func TestPauseUntil(t *testing.T) {
	spec := ClientSpec{Absences: []Absence{{From: 2, Until: 5}, {From: 8, Until: 9}}}
	cases := []struct{ in, want float64 }{
		{0, 0},   // before any absence
		{2, 5},   // exactly at the start -> pushed to the end
		{3.5, 5}, // inside the first window
		{5, 5},   // exactly at the end -> available
		{7, 7},   // between windows
		{8.5, 9}, // inside the second window
		{10, 10}, // after everything
	}
	for _, c := range cases {
		if got := spec.pauseUntil(c.in); got != c.want {
			t.Errorf("pauseUntil(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// No absences: identity.
	var free ClientSpec
	if got := free.pauseUntil(3); got != 3 {
		t.Errorf("pauseUntil without absences = %v", got)
	}
}

func TestChainedAbsences(t *testing.T) {
	// Back-to-back windows must chain: landing in the first pushes into
	// the second, which pushes past it.
	spec := ClientSpec{Absences: []Absence{{From: 1, Until: 3}, {From: 3, Until: 6}}}
	if got := spec.pauseUntil(2); got != 6 {
		t.Errorf("chained pauseUntil(2) = %v, want 6", got)
	}
}
