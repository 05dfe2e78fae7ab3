package experiments

import (
	"testing"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// countingObserver counts merged updates and nothing else: the guard below
// measures the protocol's allocations, not an evaluation's.
type countingObserver struct{ updates int }

func (o *countingObserver) ClientUpdateProcessed(float64, int, int, func() [][]float64) {
	o.updates++
}
func (o *countingObserver) QueueLength(float64, int, int) {}

// TestSteadyStateSpykerAllocations guards the typed event loop: once a
// Spyker DES is warm — records, FIFOs, the heap and the merge chains at
// their working size — a merged update allocates (almost) nothing. Before
// the events carried data, one update cost about 21 allocations, most of
// them closures for the messages of an age broadcast and for the
// processing queue. The bound is 4 per merged update; each advance also
// pays a handful for the Run's worker pool.
func TestSteadyStateSpykerAllocations(t *testing.T) {
	env, _, err := BuildEnv(Setup{
		Task: TaskMNIST, NumServers: 4, NumClients: 48, NonIIDLabels: 2, DatasetScale: 0.1,
		Seed: 3, Horizon: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	factory := quadFactory(env.Seed)
	env.NewModel = factory
	env.ModelBytes = fl.ModelWireBytes(quadDim)
	obs := &countingObserver{}
	env.Observer = obs
	if err := (&spyker.Algorithm{}).Build(env); err != nil {
		t.Fatal(err)
	}
	const step = 1.0 // virtual seconds per advance, a few hundred updates
	env.Sim.Run(5)   // warm up
	before := obs.updates
	allocs := testing.AllocsPerRun(10, func() { env.Sim.Run(env.Sim.Now() + step) })
	perRun := float64(obs.updates-before) / 11 // AllocsPerRun makes one extra, unmeasured call
	if perRun < 100 {
		t.Fatalf("only %.0f updates per advance: the guard measures nothing", perRun)
	}
	if perUpdate := allocs / perRun; perUpdate > 4 {
		t.Errorf("%.2f allocations per merged update (%.0f per %.0f updates), want at most 4", perUpdate, allocs, perRun)
	} else {
		t.Logf("%.3f allocations per merged update (%.0f updates per advance)", perUpdate, perRun)
	}
}
