package live

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/spyker-fl/spyker/internal/data"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/nn"
)

// liveFactory builds a small classifier over a shared synthetic dataset.
func liveFactory(t *testing.T) (fl.ModelFactory, [][]int, *data.Images) {
	t.Helper()
	ds := data.GenerateImages(data.MNISTLike(120, 60, 1))
	factory := func(seed int64) fl.Model {
		rng := rand.New(rand.NewSource(seed))
		ch, h, w := ds.Shape()
		conv := nn.NewConv2D(ch, h, w, 4, 3, rng)
		pool := nn.NewMaxPool2D(4, 10, 10)
		net := nn.NewNetwork(
			conv, nn.NewReLU(conv.OutSize()), pool,
			nn.NewDense(pool.OutSize(), 16, rng), nn.NewReLU(16),
			nn.NewDense(16, 10, rng),
		)
		return fl.NewClassifier(net, ds, ds.TestSet(), 10, seed)
	}
	shards := data.PartitionIID(ds.Len(), 6, 1)
	return factory, shards, ds
}

// TestLiveClusterTrains is the live-runtime integration test: 2 real TCP
// servers and 6 real clients train for one wall-clock second; updates
// must flow, and the asynchronous exchange must keep the server models
// from drifting apart unboundedly.
func TestLiveClusterTrains(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP test skipped in -short mode")
	}
	factory, shards, _ := liveFactory(t)
	hyper := fl.DefaultHyper(6, 2)
	hyper.HInter = 3 // small thresholds so syncs happen within the test window
	hyper.HIntra = 20

	stats, err := RunCluster(ClusterConfig{
		NumServers: 2,
		NumClients: 6,
		Hyper:      hyper,
		NewModel:   factory,
		Shards:     shards,
		Seed:       1,
	}, 1200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalUpdates() < 10 {
		t.Errorf("only %d updates flowed over TCP", stats.TotalUpdates())
	}
	for i, u := range stats.UpdatesPerServer {
		if u == 0 {
			t.Errorf("server %d processed no updates", i)
		}
	}
	active := 0
	for _, u := range stats.ClientUpdates {
		if u > 0 {
			active++
		}
	}
	if active < 6 {
		t.Errorf("only %d/6 clients participated", active)
	}
	if stats.SyncsTriggered == 0 {
		t.Error("no token-triggered synchronization happened")
	}
	for i, a := range stats.FinalAges {
		if a <= 0 {
			t.Errorf("server %d age = %v", i, a)
		}
	}
	t.Logf("live cluster: %d updates, %d syncs, spread %.3f, ages %v",
		stats.TotalUpdates(), stats.SyncsTriggered, stats.ModelSpread, stats.FinalAges)
}

func TestClusterValidation(t *testing.T) {
	factory, shards, _ := liveFactory(t)
	hyper := fl.DefaultHyper(6, 2)
	if _, err := RunCluster(ClusterConfig{
		NumServers: 0, NumClients: 6, Hyper: hyper, NewModel: factory, Shards: shards,
	}, time.Millisecond); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := RunCluster(ClusterConfig{
		NumServers: 2, NumClients: 4, Hyper: hyper, NewModel: factory, Shards: shards,
	}, time.Millisecond); err == nil {
		t.Error("shard/client mismatch accepted")
	}
}

// TestServerCloseIdempotent: double Close must not deadlock or panic.
func TestServerCloseIdempotent(t *testing.T) {
	factory, _, _ := liveFactory(t)
	initial := factory(1).Params()
	cfg := ServerConfig(0, 1, 3, fl.DefaultHyper(3, 1))
	srv, err := NewServer(0, "127.0.0.1:0", cfg, initial, true)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Close()
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked")
	}
}

// TestLiveClusterWithInjectedLatency emulates geo-distributed links on
// localhost: 60 ms one-way between servers, 5 ms to clients. The protocol
// must still make progress and synchronize.
func TestLiveClusterWithInjectedLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP test skipped in -short mode")
	}
	factory, shards, _ := liveFactory(t)
	hyper := fl.DefaultHyper(6, 2)
	hyper.HInter = 3
	hyper.HIntra = 20

	stats, err := RunCluster(ClusterConfig{
		NumServers:    2,
		NumClients:    6,
		Hyper:         hyper,
		NewModel:      factory,
		Shards:        shards,
		Seed:          2,
		PeerLatency:   60 * time.Millisecond,
		ClientLatency: 5 * time.Millisecond,
	}, 1500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalUpdates() < 10 {
		t.Errorf("only %d updates with injected latency", stats.TotalUpdates())
	}
	if stats.SyncsTriggered == 0 {
		t.Error("no synchronization completed across the slow peer links")
	}
	t.Logf("latency-injected cluster: %d updates, %d syncs, spread %.3f",
		stats.TotalUpdates(), stats.SyncsTriggered, stats.ModelSpread)
}

// TestCheckpointRestart runs a short live session, checkpoints one
// server, restarts it from the checkpoint on a fresh port, and verifies
// the restored server resumes with the same model, age and decay state.
func TestCheckpointRestart(t *testing.T) {
	factory, _, _ := liveFactory(t)
	initial := factory(1).Params()
	cfg := ServerConfig(0, 1, 2, fl.DefaultHyper(2, 1))

	srv, err := NewServer(0, "127.0.0.1:0", cfg, initial, true)
	if err != nil {
		t.Fatal(err)
	}

	// Drive a couple of real client updates through TCP.
	client := &Client{ID: 0, Model: factory(2), Shard: []int{0, 1, 2}, Epochs: 1}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = client.Run(srv.Addr())
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Updates() < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.Updates() < 3 {
		t.Fatal("no updates flowed before checkpoint")
	}

	// Read before the snapshot: updates keep arriving, so the checkpoint
	// can only be at this age or past it.
	wantAge := srv.Age()
	wantParams := srv.Params()
	path := t.TempDir() + "/ckpt.gob"
	if err := srv.CheckpointToFile(path); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	<-done

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ReadCheckpoint(f)
	_ = f.Close()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewServerFromCheckpoint("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	if restored.Age() < wantAge {
		t.Errorf("restored age %v < age %v read before the checkpoint", restored.Age(), wantAge)
	}
	got := restored.Params()
	if len(got) != len(wantParams) {
		t.Fatal("param length changed across restart")
	}
	// A restored server must accept new clients and keep training.
	client2 := &Client{ID: 1, Model: factory(3), Shard: []int{3, 4}, Epochs: 1}
	done2 := make(chan struct{})
	go func() {
		defer close(done2)
		_ = client2.Run(restored.Addr())
	}()
	deadline = time.Now().Add(5 * time.Second)
	before := restored.Updates()
	for restored.Updates() < before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if restored.Updates() < before+2 {
		t.Error("restored server did not resume processing updates")
	}
	restored.Close()
	<-done2
}
