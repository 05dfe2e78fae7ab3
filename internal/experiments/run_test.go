package experiments

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/obs"
)

// TestAllAlgorithmsConverge is the end-to-end integration test: every
// algorithm of the paper's comparison must train the MNIST-like task to a
// nontrivial accuracy on a small geo-distributed deployment without
// deadlocking the simulator.
func TestAllAlgorithmsConverge(t *testing.T) {
	for _, name := range ComparisonAlgorithms {
		name := name
		t.Run(name, func(t *testing.T) {
			setup := Setup{
				Task: TaskMNIST, NumServers: 4, NumClients: 20,
				NonIIDLabels: 2, Seed: 1, TargetAcc: 0.80, Horizon: 90,
			}
			res, err := Run(name, setup)
			if err != nil {
				t.Fatal(err)
			}
			if res.Updates == 0 {
				t.Fatal("no client updates were processed")
			}
			if best := res.Trace.BestAcc(); best < 0.60 {
				t.Errorf("best accuracy %.3f, want >= 0.60", best)
			}
			if res.BytesClientServer == 0 {
				t.Error("no client-server traffic recorded")
			}
			t.Logf("%s: updates=%d vt=%.2fs best=%.1f%% reached=%v",
				res.Algorithm, res.Updates, res.FinalTime,
				100*res.Trace.BestAcc(), res.ReachedTarget)
		})
	}
}

// TestRunDeterminism: two runs with the same seed must produce identical
// traces — the whole emulation is deterministic by construction.
func TestRunDeterminism(t *testing.T) {
	setup := Setup{
		Task: TaskMNIST, NumServers: 2, NumClients: 8,
		NonIIDLabels: 2, Seed: 42, MaxUpdates: 300, Horizon: 60,
	}
	a, err := Run("spyker", setup)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("spyker", setup)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("trace point %d differs: %+v vs %+v", i, a.Trace[i], b.Trace[i])
		}
	}
	if a.BytesClientServer != b.BytesClientServer || a.BytesServerServer != b.BytesServerServer {
		t.Error("byte accounting differs between identical runs")
	}
}

// TestTracingDoesNotPerturbSimulation is the observability determinism
// regression test: a run with full event tracing enabled must produce an
// experiment trace byte-identical to the same run with the no-op sink.
// Sinks are passive by contract (they only record), so attaching one can
// never change what the simulator schedules.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	setup := Setup{
		Task: TaskMNIST, NumServers: 2, NumClients: 8,
		NonIIDLabels: 2, Seed: 42, MaxUpdates: 300, Horizon: 60,
	}
	plain, err := Run("spyker", setup)
	if err != nil {
		t.Fatal(err)
	}

	traced := setup
	tracer := obs.NewTracer(0)
	traced.Trace = tracer
	traced.Metrics = obs.NewRegistry()
	instr, err := Run("spyker", traced)
	if err != nil {
		t.Fatal(err)
	}

	if tracer.Len() == 0 {
		t.Fatal("tracer saw no events — instrumentation is not wired")
	}
	if len(plain.Trace) != len(instr.Trace) {
		t.Fatalf("trace lengths differ: %d plain vs %d traced", len(plain.Trace), len(instr.Trace))
	}
	for i := range plain.Trace {
		if plain.Trace[i] != instr.Trace[i] {
			t.Fatalf("trace point %d differs with tracing on: %+v vs %+v",
				i, plain.Trace[i], instr.Trace[i])
		}
	}
	if plain.FinalTime != instr.FinalTime || plain.Updates != instr.Updates {
		t.Errorf("run outcome differs: %.6f/%d plain vs %.6f/%d traced",
			plain.FinalTime, plain.Updates, instr.FinalTime, instr.Updates)
	}
	if plain.BytesClientServer != instr.BytesClientServer ||
		plain.BytesServerServer != instr.BytesServerServer {
		t.Error("byte accounting differs with tracing on")
	}

	// The registry must have filled from the derived metrics sink.
	if v, ok := traced.Metrics.Snapshot()[obs.MetricUpdates].(int64); !ok || v == 0 {
		t.Errorf("derived metric %s missing from registry", obs.MetricUpdates)
	}

	// Provenance: the traced run's events must reconstruct full update
	// lineage — the frontier and UIDs are protocol state the events only
	// observe, so tracing them cannot have perturbed the byte-identical
	// schedules verified above.
	lin := obs.BuildLineage(tracer.Events())
	if lin.Untracked != 0 {
		t.Errorf("%d untracked updates in an instrumented run", lin.Untracked)
	}
	if len(lin.Updates) == 0 {
		t.Fatal("traced run reconstructed no update lineage")
	}
	full := 0
	for _, u := range lin.Updates {
		if _, _, ok := u.UID.Update(); !ok {
			t.Fatalf("update lineage without client-minted UID: %+v", u)
		}
		if u.ReachedAll(setup.NumServers) {
			full++
			if lat := u.PropagationLatency(); lat <= 0 {
				t.Errorf("%s fully propagated with non-positive latency %v", u.Name(), lat)
			}
		}
	}
	if full == 0 {
		t.Error("no update propagated to every server over 60 virtual seconds")
	}
}

// inlineModel hides a model behind the fl.Model interface alone, so the
// simulated client trains it on the event loop: the run a detached
// training must reproduce.
type inlineModel struct{ fl.Model }

// yieldingObserver gives up the processor at every observer callback, i.e.
// on the event loop between a client's update and the reply that starts
// its next training — the moments that decide whether a worker or the
// joining loop claims a training.
type yieldingObserver struct{ fl.Observer }

func (o yieldingObserver) ClientUpdateProcessed(now float64, server, client int, models func() [][]float64) {
	runtime.Gosched()
	o.Observer.ClientUpdateProcessed(now, server, client, models)
	runtime.Gosched()
}

// TestTrainingOffTheLoopCannotMoveResults: local training runs detached
// from the event loop (fl.SimClient). A whole seeded run must not depend on
// it — the trace of a run trained inline, of a plain run, and of a run
// whose goroutines are jostled (the loop yields around every update while
// a busy neighbour competes for the processors) are the same to the last
// bit, for the per-update and the round-based protocol and for both models
// that train off the loop. Run it with -cpu 1,4: one processor makes nearly
// every join steal, four nearly none.
func TestTrainingOffTheLoopCannotMoveResults(t *testing.T) {
	for _, tc := range []struct {
		task Task
		alg  string
	}{{TaskMNIST, "spyker"}, {TaskMNIST, "fedavg"}, {TaskWiki, "spyker"}} {
		t.Run(tc.task.String()+"/"+tc.alg, func(t *testing.T) {
			setup := Setup{
				Task: tc.task, NumServers: 2, NumClients: 8, NonIIDLabels: 2,
				Seed: 11, MaxUpdates: 96, EvalEvery: 8, Horizon: 60,
			}
			run := func(edit func(*fl.Env)) (uint64, uint64, int) {
				res, err := oracleRun(tc.alg, setup, edit)
				if err != nil {
					t.Fatal(err)
				}
				return traceHash(res), math.Float64bits(res.FinalTime), res.Updates
			}
			wantTrace, wantTime, wantUpdates := run(func(e *fl.Env) {
				newModel := e.NewModel
				e.NewModel = func(seed int64) fl.Model { return inlineModel{newModel(seed)} }
			})

			var stop atomic.Bool
			var neighbour sync.WaitGroup
			neighbour.Add(1)
			go func() {
				defer neighbour.Done()
				for !stop.Load() {
					runtime.Gosched()
				}
			}()
			arms := map[string]func(*fl.Env){
				"detached":         func(*fl.Env) {},
				"detached, yields": func(e *fl.Env) { e.Observer = yieldingObserver{e.Observer} },
			}
			for arm, edit := range arms {
				if trace, at, updates := run(edit); trace != wantTrace || at != wantTime || updates != wantUpdates {
					t.Errorf("%s: trace %#x, final time %#x, %d updates; trained inline: %#x, %#x, %d",
						arm, trace, at, updates, wantTrace, wantTime, wantUpdates)
				}
			}
			stop.Store(true)
			neighbour.Wait()
		})
	}
}
