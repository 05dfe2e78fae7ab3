package fault_test

import (
	"reflect"
	"strings"
	"testing"

	"github.com/spyker-fl/spyker/internal/experiments"
	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// desElastic is one small DES run with an optional membership plan: the
// elastic scenario starts with two servers and admits two more mid-run.
type desElastic struct {
	finalAcc   float64
	bestAcc    float64
	endServers int
	finalEpoch int
	syncsAfter int // sync rounds completed by the joiners
	params     [][]float64
	bytes      int
	events     []obs.Event
	accTrace   []float64
}

const (
	elasticHorizon = 50.0
	elasticJoin1At = 12.0
	elasticJoin2At = 18.0
)

func runDESElastic(t *testing.T, servers int, grow bool) desElastic {
	t.Helper()
	hyper := fl.DefaultHyper(16, servers)
	hyper.TokenTimeout = 5
	hyper.SyncRetry = 2.5
	tracer := obs.NewTracer(1 << 19)
	setup := experiments.Setup{
		Task: experiments.TaskMNIST, NumServers: servers, NumClients: 16,
		NonIIDLabels: 2, Seed: 11, Horizon: elasticHorizon, EvalEvery: 50,
		Hyper: &hyper, Trace: tracer, Metrics: obs.NewRegistry(),
	}
	if grow {
		plan := fault.Plan{Seed: 11, Events: []fault.Event{
			{At: elasticJoin1At, Kind: fault.KindJoin, Server: 0},
			{At: elasticJoin2At, Kind: fault.KindJoin, Server: 1},
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
	env.Sim.Run(elasticHorizon)

	out := desElastic{
		finalAcc: rec.TraceData.Final().Acc,
		bestAcc:  rec.TraceData.BestAcc(),
		bytes:    env.Net.TotalBytes(geo.ClientServer) + env.Net.TotalBytes(geo.ServerServer),
		events:   tracer.Events(),
	}
	for i, c := range alg.Servers() {
		if e := c.Epoch(); e > out.finalEpoch {
			out.finalEpoch = e
		}
		if m := c.Membership(); m.Count() > out.endServers {
			out.endServers = m.Count()
		}
		if i >= servers {
			out.syncsAfter += c.SyncsJoined()
		}
		out.params = append(out.params, append([]float64(nil), c.Params()...))
	}
	for _, p := range rec.TraceData {
		out.accTrace = append(out.accTrace, p.Acc)
	}
	return out
}

// TestDESElasticScaleOut is the elastic-membership acceptance scenario:
// a two-server ring admits two joiners mid-run. Both joins must actually
// fire, every server must converge on the same epoch-2 four-member ring,
// the joiners must participate in completed sync rounds after admission,
// and the run must end within 2 accuracy points of a fixed four-server
// ring trained under the identical workload.
func TestDESElasticScaleOut(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models; skipped in -short")
	}
	fixed4 := runDESElastic(t, 4, false)
	elastic := runDESElastic(t, 2, true)

	var joins int
	lastSyncEnd := 0.0
	for _, e := range elastic.events {
		switch e.Kind {
		case obs.KindFault:
			if strings.HasPrefix(e.Note, "join s") {
				joins++
			}
			if strings.Contains(e.Note, "join-miss") {
				t.Fatalf("planned join degraded to a miss: %q", e.Note)
			}
		case obs.KindSyncEnd:
			if e.Time > lastSyncEnd {
				lastSyncEnd = e.Time
			}
		}
	}
	if joins != 2 {
		t.Fatalf("join events = %d, want 2", joins)
	}
	if elastic.endServers != 4 {
		t.Fatalf("elastic ring ended with %d members, want 4", elastic.endServers)
	}
	if elastic.finalEpoch != 2 {
		t.Fatalf("final membership epoch = %d, want 2 (one bump per join)", elastic.finalEpoch)
	}
	if elastic.syncsAfter == 0 {
		t.Fatal("joiners never participated in a completed sync round")
	}
	if lastSyncEnd <= elasticJoin2At {
		t.Fatalf("last completed sync at %.1fs; none after the second join at %.1fs",
			lastSyncEnd, elasticJoin2At)
	}
	if diff := fixed4.bestAcc - elastic.bestAcc; diff > 0.02 {
		t.Fatalf("elastic best accuracy %.3f trails fixed-4 %.3f by %.3f (> 0.02)",
			elastic.bestAcc, fixed4.bestAcc, diff)
	}
	t.Logf("fixed-4 acc %.3f, elastic acc %.3f, joiner syncs %d, last sync %.1fs",
		fixed4.bestAcc, elastic.bestAcc, elastic.syncsAfter, lastSyncEnd)
}

// TestDESElasticDeterministic: the whole elastic run — both joins,
// snapshot bootstraps, client re-homing, every merged update — must be
// byte-reproducible from the seed.
func TestDESElasticDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models; skipped in -short")
	}
	a := runDESElastic(t, 2, true)
	b := runDESElastic(t, 2, true)
	if a.bytes != b.bytes || a.finalEpoch != b.finalEpoch || a.endServers != b.endServers {
		t.Fatalf("run outcomes differ: bytes %d/%d, epoch %d/%d, members %d/%d",
			a.bytes, b.bytes, a.finalEpoch, b.finalEpoch, a.endServers, b.endServers)
	}
	if !reflect.DeepEqual(a.accTrace, b.accTrace) {
		t.Fatal("accuracy traces differ between identical elastic runs")
	}
	if !reflect.DeepEqual(a.params, b.params) {
		t.Fatal("final model parameters differ between identical elastic runs")
	}
	if len(a.events) != len(b.events) {
		t.Fatalf("event streams differ in length: %d vs %d", len(a.events), len(b.events))
	}
	for i := range a.events {
		if !reflect.DeepEqual(a.events[i], b.events[i]) {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.events[i], b.events[i])
		}
	}
}
