package nn_test

import (
	"math/rand"
	"testing"

	"github.com/spyker-fl/spyker/internal/data"
	"github.com/spyker-fl/spyker/internal/experiments"
	"github.com/spyker-fl/spyker/internal/nn"
)

// TestWikiRunHoldsScratchPerTrainerNotPerClient: after a 100-client
// char-LSTM run of the DES, every training scratch a client borrowed is back
// in its free list, so no client model holds one at rest, and the list holds
// no more than the goroutines that train at once: the simulation's four
// detach workers and its event loop.
func TestWikiRunHoldsScratchPerTrainerNotPerClient(t *testing.T) {
	const trainers = 4 + 1
	nn.ForgetTrainScratch()
	s := experiments.Setup{
		Task: experiments.TaskWiki, NumServers: 4, NumClients: 100,
		Seed: 1, Horizon: 60, MaxUpdates: 300, EvalEvery: 100,
	}
	res, err := experiments.Run("spyker", s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates == 0 {
		t.Fatal("the run merged no update")
	}
	made, free := nn.TrainScratch(data.WikiTextLike(0, 0, 0).Vocab, 8, 16)
	if made == 0 {
		t.Fatal("no client borrowed a training scratch")
	}
	t.Logf("%d updates, %d training scratches for %d clients", res.Updates, made, s.NumClients)
	if free != made {
		t.Errorf("%d of the %d training scratches are still held by a model after the run", made-free, made)
	}
	if made > trainers {
		t.Errorf("%d training scratches for %d clients, want at most one per training goroutine (%d)", made, s.NumClients, trainers)
	}
}

// TestMNISTRunHoldsScratchPerTrainerNotPerClient: the same bound for the
// CNN. After a 20-client MNIST Spyker run of the DES, shaped as fig5 runs
// it, every gradient plane and layer scratch a client borrowed is back in
// its free list, and there are no more of them than training goroutines.
func TestMNISTRunHoldsScratchPerTrainerNotPerClient(t *testing.T) {
	const trainers = 4 + 1
	nn.ForgetTrainScratch()
	s := experiments.Setup{
		Task: experiments.TaskMNIST, NumServers: 4, NumClients: 20, NonIIDLabels: 2,
		Seed: 1, Horizon: 60, MaxUpdates: 300, EvalEvery: 100,
	}
	res, err := experiments.Run("spyker", s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates == 0 {
		t.Fatal("the run merged no update")
	}
	// A network of the shape fl.NewMNISTClassifier builds (6 filters, 32
	// hidden units) finds the run's free list.
	ds := data.GenerateImages(data.MNISTLike(10, 10, 1))
	ch, h, w := ds.Shape()
	rng := rand.New(rand.NewSource(1))
	conv, pool := nn.NewConv2D(ch, h, w, 6, 3, rng), nn.NewMaxPool2D(6, h-2, w-2)
	net := nn.NewNetwork(conv, nn.NewReLU(conv.OutSize()), pool,
		nn.NewDense(pool.OutSize(), 32, rng), nn.NewReLU(32), nn.NewDense(32, ds.NumClasses(), rng))
	made, free := nn.NetTrainScratch(net)
	if made == 0 {
		t.Fatal("no client borrowed a training scratch")
	}
	t.Logf("%d updates, %d training scratches for %d clients", res.Updates, made, s.NumClients)
	if free != made {
		t.Errorf("%d of the %d training scratches are still held by a model after the run", made-free, made)
	}
	if made > trainers {
		t.Errorf("%d training scratches for %d clients, want at most one per training goroutine (%d)", made, s.NumClients, trainers)
	}
}
