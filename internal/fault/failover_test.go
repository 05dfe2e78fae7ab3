package fault_test

import (
	"math"
	"reflect"
	"testing"

	"github.com/spyker-fl/spyker/internal/experiments"
	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/ring"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// desFailover is one small DES run with token-loss recovery armed,
// optionally crashing the token holder mid-run.
type desFailover struct {
	finalAcc float64
	bestAcc  float64
	regens   int
	params   [][]float64
	bytes    int
	events   []obs.Event
	accTrace []float64
}

const (
	desHorizon  = 40.0
	desCrashAt  = 15.0
	desDowntime = 8.0
)

func runDESFailover(t *testing.T, crash bool) desFailover {
	t.Helper()
	hyper := fl.DefaultHyper(12, 3)
	hyper.TokenTimeout = 4
	hyper.SyncRetry = 2
	tracer := obs.NewTracer(1 << 15)
	setup := experiments.Setup{
		Task: experiments.TaskMNIST, NumServers: 3, NumClients: 12,
		NonIIDLabels: 2, Seed: 7, Horizon: desHorizon, EvalEvery: 50,
		Hyper: &hyper, Trace: tracer, Metrics: obs.NewRegistry(),
	}
	if crash {
		plan := fault.Plan{Seed: 7, Events: []fault.Event{
			{At: desCrashAt, Kind: fault.KindCrash, Server: fault.TokenHolder, Duration: desDowntime},
		}}
		setup.Faults = &plan
	}
	env, rec, err := experiments.BuildEnv(setup)
	if err != nil {
		t.Fatal(err)
	}
	alg := &spyker.Algorithm{}
	if err := alg.Build(env); err != nil {
		t.Fatal(err)
	}
	if setup.Faults != nil {
		inj, err := fault.NewSimInjector(*setup.Faults, env.Sim, env.Net, alg)
		if err != nil {
			t.Fatal(err)
		}
		inj.Instrument(env.Trace)
		inj.Arm()
	}
	env.Sim.Run(desHorizon)

	out := desFailover{
		finalAcc: rec.TraceData.Final().Acc,
		bestAcc:  rec.TraceData.BestAcc(),
		bytes:    env.Net.TotalBytes(geo.ClientServer) + env.Net.TotalBytes(geo.ServerServer),
		events:   tracer.Events(),
	}
	for _, c := range alg.Servers() {
		out.regens += c.TokenRegens()
		out.params = append(out.params, append([]float64(nil), c.Params()...))
	}
	for _, p := range rec.TraceData {
		out.accTrace = append(out.accTrace, p.Acc)
	}
	return out
}

// TestDESFailoverScenario is the tentpole acceptance scenario: crash the
// token holder mid-run, and the ring must detect the silence, regenerate
// the token with a strictly higher bid, discard the stale survivor when
// the restarted server resurfaces it from its checkpoint, and keep
// synchronizing — at an accuracy within 2 points of the fault-free run.
func TestDESFailoverScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models; skipped in -short")
	}
	clean := runDESFailover(t, false)
	faulty := runDESFailover(t, true)

	// The fault actually fired: crash + restart events at the planned times.
	var crashes, restarts, regenEvents, retireEvents int
	maxBidBeforeCrash, minRegenBid := 0, math.MaxInt
	lastSyncEnd := 0.0
	for _, e := range faulty.events {
		switch e.Kind {
		case obs.KindFault:
			switch e.Note {
			case "crash":
				crashes++
			case "restart":
				restarts++
			}
		case obs.KindTokenRegen:
			regenEvents++
			if e.Bid < minRegenBid {
				minRegenBid = e.Bid
			}
		case obs.KindTokenRetire:
			retireEvents++
		case obs.KindSyncEnd:
			if e.Time > lastSyncEnd {
				lastSyncEnd = e.Time
			}
			if e.Time < desCrashAt && e.Bid > maxBidBeforeCrash {
				maxBidBeforeCrash = e.Bid
			}
		}
	}
	if crashes != 1 || restarts != 1 {
		t.Fatalf("crash/restart events = %d/%d, want 1/1", crashes, restarts)
	}
	if regenEvents == 0 || faulty.regens == 0 {
		t.Fatal("token loss was never detected: no regeneration happened")
	}
	if minRegenBid <= maxBidBeforeCrash {
		t.Fatalf("regenerated bid %d does not exceed the pre-crash round bid %d",
			minRegenBid, maxBidBeforeCrash)
	}
	if retireEvents == 0 {
		t.Fatal("no stale token was ever retired — the pre-crash survivor leaked")
	}
	// Synchronization resumed after the restart, not just before the crash.
	if rejoined := desCrashAt + desDowntime; lastSyncEnd <= rejoined {
		t.Fatalf("last completed sync at %.1fs; none after the restart at %.1fs",
			lastSyncEnd, rejoined)
	}
	// Accuracy within 2 points of the fault-free reference.
	if diff := clean.bestAcc - faulty.bestAcc; diff > 0.02 {
		t.Fatalf("faulty best accuracy %.3f trails fault-free %.3f by %.3f (> 0.02)",
			faulty.bestAcc, clean.bestAcc, diff)
	}
	t.Logf("clean acc %.3f, faulty acc %.3f, regens %d, retires %d",
		clean.bestAcc, faulty.bestAcc, faulty.regens, retireEvents)
}

// nopOutbound absorbs a restored core's sends; the equivalence test only
// inspects state, never traffic.
type nopOutbound struct{}

func (nopOutbound) ReplyClient(int, []float64, float64, float64)                     {}
func (nopOutbound) BroadcastModel([]float64, float64, int, obs.UID, ring.Membership) {}
func (nopOutbound) BroadcastAge(float64, ring.Membership)                            {}
func (nopOutbound) SendToken(spyker.Token, int)                                      {}

// TestCheckpointRestoreEquivalence snapshots a DES server in the middle
// of a faulty run — mid-synchronization, recovery armed, real traffic in
// flight — restores a fresh core from the snapshot, and requires the
// restored core's own snapshot to round-trip exactly: model, ages,
// token, dedup sets, decay counters, round copy, and the recovery state.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models; skipped in -short")
	}
	hyper := fl.DefaultHyper(12, 3)
	hyper.TokenTimeout = 4
	hyper.SyncRetry = 2
	setup := experiments.Setup{
		Task: experiments.TaskMNIST, NumServers: 3, NumClients: 12,
		NonIIDLabels: 2, Seed: 7, Horizon: 20, EvalEvery: 50, Hyper: &hyper,
	}
	env, _, err := experiments.BuildEnv(setup)
	if err != nil {
		t.Fatal(err)
	}
	alg := &spyker.Algorithm{}
	if err := alg.Build(env); err != nil {
		t.Fatal(err)
	}
	// Sample until the token is at rest at some server (it spends much of
	// its time in flight between rounds); the first such instant freezes
	// all three states.
	var snaps []spyker.State
	capture := func() {
		if snaps != nil {
			return
		}
		held := false
		for _, core := range alg.Servers() {
			if core.HasToken() {
				held = true
			}
		}
		if !held {
			return
		}
		for _, core := range alg.Servers() {
			var st spyker.State
			core.SnapshotInto(&st)
			snaps = append(snaps, st)
		}
	}
	for at := 5.0; at < 18; at += 0.25 {
		env.Sim.ScheduleAt(at, capture)
	}
	env.Sim.Run(20)
	if len(snaps) != 3 {
		t.Fatalf("captured %d mid-run snapshots, want 3", len(snaps))
	}
	sawToken := false
	for i, st := range snaps {
		if st.Token != nil {
			sawToken = true
		}
		restored, err := spyker.RestoreServerCore(st, nopOutbound{})
		if err != nil {
			t.Fatalf("restore server %d: %v", i, err)
		}
		var again spyker.State
		restored.SnapshotInto(&again)
		if !reflect.DeepEqual(st, again) {
			t.Errorf("server %d state does not round-trip through restore:\n before %+v\n after  %+v",
				i, st, again)
		}
	}
	if !sawToken {
		t.Error("no mid-run snapshot held the token — the round-trip never covered the token path")
	}
}

// TestDESFailoverDeterministic: the whole faulty run — crash, recovery,
// every merged update — must be byte-reproducible from the seed.
func TestDESFailoverDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models; skipped in -short")
	}
	a := runDESFailover(t, true)
	b := runDESFailover(t, true)
	if a.regens != b.regens || a.bytes != b.bytes {
		t.Fatalf("run outcomes differ: regens %d/%d, bytes %d/%d",
			a.regens, b.regens, a.bytes, b.bytes)
	}
	if !reflect.DeepEqual(a.accTrace, b.accTrace) {
		t.Fatal("accuracy traces differ between identical faulty runs")
	}
	if !reflect.DeepEqual(a.params, b.params) {
		t.Fatal("final model parameters differ between identical faulty runs")
	}
	if len(a.events) != len(b.events) {
		t.Fatalf("event streams differ in length: %d vs %d", len(a.events), len(b.events))
	}
	for i := range a.events {
		ea, eb := a.events[i], b.events[i]
		// Front is a per-event slice; compare the full structs via
		// DeepEqual to cover it too.
		if !reflect.DeepEqual(ea, eb) {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea, eb)
		}
	}
}
