package fl

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spyker-fl/spyker/internal/data"
	"github.com/spyker-fl/spyker/internal/nn"
)

func newTestClassifier(seed int64) (*Classifier, *data.Images) {
	ds := data.GenerateImages(data.MNISTLike(200, 100, 1))
	rng := rand.New(rand.NewSource(seed))
	ch, h, w := ds.Shape()
	conv := nn.NewConv2D(ch, h, w, 4, 3, rng)
	pool := nn.NewMaxPool2D(4, 10, 10)
	net := nn.NewNetwork(
		conv, nn.NewReLU(conv.OutSize()), pool,
		nn.NewDense(pool.OutSize(), 16, rng), nn.NewReLU(16),
		nn.NewDense(16, 10, rng),
	)
	return NewClassifier(net, ds, ds.TestSet(), 10, seed), ds
}

func TestClassifierTrainImproves(t *testing.T) {
	m, ds := newTestClassifier(1)
	shard := make([]int, ds.Len())
	for i := range shard {
		shard[i] = i
	}
	loss0, acc0 := m.Evaluate()
	for e := 0; e < 15; e++ {
		m.Train(shard, 1, 0.05)
	}
	loss1, acc1 := m.Evaluate()
	if loss1 >= loss0 {
		t.Errorf("loss did not improve: %.4f -> %.4f", loss0, loss1)
	}
	if acc1 <= acc0 || acc1 < 0.5 {
		t.Errorf("accuracy did not improve enough: %.3f -> %.3f", acc0, acc1)
	}
}

func TestClassifierParamsRoundTrip(t *testing.T) {
	m, _ := newTestClassifier(2)
	p := m.Params()
	if len(p) != m.NumParams() {
		t.Fatal("Params length mismatch")
	}
	p[0] = 123
	m.SetParams(p)
	if got := m.Params()[0]; got != 123 {
		t.Errorf("SetParams not applied: %v", got)
	}
}

func TestClassifierEmptyShardNoop(t *testing.T) {
	m, _ := newTestClassifier(3)
	before := m.Params()
	m.Train(nil, 1, 0.1)
	m.Train([]int{1, 2}, 0, 0.1)
	after := m.Params()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("no-op training moved parameters")
		}
	}
}

func TestClassifierTrainDeterministic(t *testing.T) {
	build := func() []float64 {
		m, _ := newTestClassifier(4)
		m.Train([]int{0, 1, 2, 3, 4, 5}, 2, 0.05)
		return m.Params()
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training is nondeterministic")
		}
	}
}

func TestLanguageModelTrainImproves(t *testing.T) {
	txt := data.GenerateText(data.WikiTextLike(4000, 600, 1))
	rng := rand.New(rand.NewSource(1))
	m := NewLanguageModel(nn.NewCharLM(txt.Vocab(), 8, 16, rng), txt, 1)

	shard := make([]int, txt.Len())
	for i := range shard {
		shard[i] = i
	}
	loss0, _ := m.Evaluate()
	for e := 0; e < 8; e++ {
		m.Train(shard, 1, 0.3)
	}
	loss1, acc1 := m.Evaluate()
	if loss1 >= loss0 {
		t.Errorf("LM loss did not improve: %.4f -> %.4f", loss0, loss1)
	}
	// Perplexity must drop well below the uniform baseline (= vocab).
	if ppl, uniform := math.Exp(loss1), float64(txt.Vocab()); ppl >= uniform*0.8 {
		t.Errorf("perplexity %.2f still near uniform %v", ppl, uniform)
	}
	if acc1 <= 1.0/float64(txt.Vocab()) {
		t.Errorf("next-char accuracy %.3f no better than chance", acc1)
	}
}

func TestLanguageModelParamsRoundTrip(t *testing.T) {
	txt := data.GenerateText(data.WikiTextLike(1000, 200, 2))
	rng := rand.New(rand.NewSource(2))
	m := NewLanguageModel(nn.NewCharLM(txt.Vocab(), 4, 6, rng), txt, 2)
	p := m.Params()
	p[len(p)-1] = 42
	m.SetParams(p)
	if got := m.Params()[len(p)-1]; got != 42 {
		t.Errorf("SetParams not applied: %v", got)
	}
	if m.NumParams() != len(p) {
		t.Error("NumParams mismatch")
	}
}
