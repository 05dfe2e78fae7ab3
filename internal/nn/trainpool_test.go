package nn_test

import (
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
