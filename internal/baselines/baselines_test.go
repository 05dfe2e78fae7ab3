package baselines_test

import (
	"math"
	"testing"

	"github.com/spyker-fl/spyker/internal/baselines"
	"github.com/spyker-fl/spyker/internal/experiments"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/metrics"
)

// buildSmallEnv assembles an 8-client/2-server MNIST environment.
func buildSmallEnv(t *testing.T, seed int64) (*fl.Env, *metrics.Recorder) {
	t.Helper()
	env, rec, err := experiments.BuildEnv(experiments.Setup{
		Task:       experiments.TaskMNIST,
		NumServers: 2,
		NumClients: 8,
		Seed:       seed,
		EvalEvery:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env, rec
}

func TestFedAvgRoundsAreSynchronous(t *testing.T) {
	env, rec := buildSmallEnv(t, 1)
	alg := &baselines.FedAvg{}
	if err := alg.Build(env); err != nil {
		t.Fatal(err)
	}
	env.Sim.Run(20)
	if alg.Rounds() < 2 {
		t.Fatalf("only %d rounds ran", alg.Rounds())
	}
	// Synchronous rounds: processed updates must be a multiple of the
	// client count bounded by the number of started rounds.
	upd := rec.Updates()
	if upd%len(env.Clients) != 0 && upd/len(env.Clients) >= alg.Rounds() {
		t.Errorf("updates %d inconsistent with %d rounds of %d clients",
			upd, alg.Rounds(), len(env.Clients))
	}
	if len(alg.GlobalParams()) == 0 {
		t.Error("no global model")
	}
}

func TestFedAsyncVersionTracksUpdates(t *testing.T) {
	env, rec := buildSmallEnv(t, 2)
	alg := &baselines.FedAsync{}
	if err := alg.Build(env); err != nil {
		t.Fatal(err)
	}
	env.Sim.Run(10)
	if alg.Version() == 0 {
		t.Fatal("no updates aggregated")
	}
	if alg.Version() != rec.Updates() {
		t.Errorf("version %d != observed updates %d", alg.Version(), rec.Updates())
	}
}

func TestHierFAVGCloudAggregates(t *testing.T) {
	env, _ := buildSmallEnv(t, 3)
	alg := &baselines.HierFAVG{}
	if err := alg.Build(env); err != nil {
		t.Fatal(err)
	}
	env.Sim.Run(30)
	if alg.CloudRounds() == 0 {
		t.Fatal("cloud never aggregated")
	}
	if len(alg.EdgeParams()) != 2 {
		t.Errorf("edge params = %d", len(alg.EdgeParams()))
	}
}

func TestSyncSpykerExchanges(t *testing.T) {
	env, rec := buildSmallEnv(t, 4)
	env.Hyper.SyncPeriod = 2
	alg := &baselines.SyncSpyker{}
	if err := alg.Build(env); err != nil {
		t.Fatal(err)
	}
	env.Sim.Run(15)
	if alg.Syncs() < 2 {
		t.Fatalf("only %d synchronous exchanges", alg.Syncs())
	}
	if rec.Updates() == 0 {
		t.Fatal("no client updates processed")
	}
}

// TestSyncSpykerServersConvergeAfterExchange: right after an exchange all
// servers hold the same model, so at any time the two server models must
// be either identical or only as far apart as the updates since the last
// exchange; a very short post-exchange run keeps them near-identical.
func TestSyncSpykerServersHomogenize(t *testing.T) {
	env, _ := buildSmallEnv(t, 5)
	env.Hyper.SyncPeriod = 3
	alg := &baselines.SyncSpyker{}
	if err := alg.Build(env); err != nil {
		t.Fatal(err)
	}
	// Run to just past the first exchange (period 3 + exchange latency).
	env.Sim.Run(3.6)
	if alg.Syncs() == 0 {
		t.Skip("exchange not finished yet at this horizon")
	}
	params := alg.ServerParams()
	// Distance between server models should be small relative to the
	// model norm (they were identical moments ago).
	var dist, norm float64
	for i := range params[0] {
		d := params[0][i] - params[1][i]
		dist += d * d
		norm += params[0][i] * params[0][i]
	}
	if math.Sqrt(dist) > 0.5*math.Sqrt(norm) {
		t.Errorf("server models far apart right after exchange: %v vs %v",
			math.Sqrt(dist), math.Sqrt(norm))
	}
}

func TestSyncSpykerRequiresPeriod(t *testing.T) {
	env, _ := buildSmallEnv(t, 6)
	env.Hyper.SyncPeriod = 0
	alg := &baselines.SyncSpyker{}
	if err := alg.Build(env); err == nil {
		t.Fatal("zero SyncPeriod accepted")
	}
}

// TestFedAsyncStalenessDampens: with 1 client there is no staleness; the
// model should track the client update closely (weight alpha).
func TestAlgorithmsNames(t *testing.T) {
	cases := map[string]fl.Algorithm{
		"FedAvg":      &baselines.FedAvg{},
		"FedAsync":    &baselines.FedAsync{},
		"HierFAVG":    &baselines.HierFAVG{},
		"Sync-Spyker": &baselines.SyncSpyker{},
	}
	for want, alg := range cases {
		if alg.Name() != want {
			t.Errorf("Name = %q, want %q", alg.Name(), want)
		}
	}
}

func TestFedBuffBuffersAndConverges(t *testing.T) {
	env, rec := buildSmallEnv(t, 7)
	alg := &baselines.FedBuff{}
	if err := alg.Build(env); err != nil {
		t.Fatal(err)
	}
	env.Sim.Run(30)
	if alg.Flushes() == 0 {
		t.Fatal("buffer never flushed")
	}
	// Buffered aggregation: far fewer flushes than updates.
	if alg.Flushes()*2 > rec.Updates() {
		t.Errorf("flushes %d vs updates %d; buffering broken", alg.Flushes(), rec.Updates())
	}
	if best := rec.TraceData.BestAcc(); best < 0.5 {
		t.Errorf("FedBuff best accuracy %.2f", best)
	}
	if len(alg.GlobalParams()) == 0 {
		t.Error("no global model")
	}
}
