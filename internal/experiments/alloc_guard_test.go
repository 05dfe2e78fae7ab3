package experiments

import (
	"runtime"
	"testing"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/metrics"
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
	env, _ := stubSpyker(t, 0)
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

// TestSteadyStateSpykerBytes guards what the allocation count above cannot
// see: bytes. It runs with BuildEnv's own metrics.Recorder, evaluating
// never, so the recorder and the network's transfer log are in the
// measurement. A log kept per event in a slice that grows by copying —
// the queue-length trace every run once recorded, the transfer log as one
// []Transfer — cost about 960 bytes per merged update, and one 16-byte
// record per transfer 66; with one record per run of identical sends the
// run allocates 54. On one P, as testing.AllocsPerRun measures, that
// figure does not vary, and the bound is 60. On more Ps a sync.Pool's
// per-P caches make a model buffer's recycling depend on which P its Put
// and Get ran on, and each fresh 128 KiB buffer adds 24 bytes per merged
// update (54 to 151 at up to 8 Ps), so the test also measures at the
// GOMAXPROCS it was started with, against the bound of 256.
func TestSteadyStateSpykerBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build's own allocations count against the bound")
	}
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	checkBytesPerUpdate(t, 60)
	if procs > 1 {
		runtime.GOMAXPROCS(procs)
		checkBytesPerUpdate(t, 256)
	}
}

// checkBytesPerUpdate runs the guards' deployment for 20 virtual seconds
// after a warm-up and fails t if it allocated more than bound bytes per
// merged update.
func checkBytesPerUpdate(t *testing.T, bound float64) {
	t.Helper()
	env, rec := stubSpyker(t, 1<<30)
	if err := (&spyker.Algorithm{}).Build(env); err != nil {
		t.Fatal(err)
	}
	env.Sim.Run(5) // warm up
	var before, after runtime.MemStats
	updates := rec.Updates()
	runtime.ReadMemStats(&before)
	env.Sim.Run(env.Sim.Now() + 20)
	runtime.ReadMemStats(&after)
	updates = rec.Updates() - updates
	if updates < 5000 {
		t.Fatalf("only %d merged updates: the guard measures too little", updates)
	}
	procs := runtime.GOMAXPROCS(0)
	if perUpdate := float64(after.TotalAlloc-before.TotalAlloc) / float64(updates); perUpdate > bound {
		t.Errorf("GOMAXPROCS %d: %.0f bytes allocated per merged update over %d updates, want at most %.0f", procs, perUpdate, updates, bound)
	} else {
		t.Logf("GOMAXPROCS %d: %.0f bytes allocated per merged update over %d updates", procs, perUpdate, updates)
	}
}

// stubSpyker builds the guards' deployment — 4 servers, 48 clients, the
// benchmark's stub model — with BuildEnv's recorder evaluating every
// evalEvery updates (0: its default).
func stubSpyker(t *testing.T, evalEvery int) (*fl.Env, *metrics.Recorder) {
	t.Helper()
	env, rec, err := BuildEnv(Setup{
		Task: TaskMNIST, NumServers: 4, NumClients: 48, NonIIDLabels: 2, DatasetScale: 0.1,
		Seed: 3, Horizon: 1e9, EvalEvery: evalEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.NewModel = quadFactory(env.Seed)
	env.ModelBytes = fl.ModelWireBytes(quadDim)
	return env, rec
}
