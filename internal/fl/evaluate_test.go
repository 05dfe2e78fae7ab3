package fl

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spyker-fl/spyker/internal/data"
	"github.com/spyker-fl/spyker/internal/nn"
	"github.com/spyker-fl/spyker/internal/tensor"
)

// refClassifierEvaluate is Classifier.Evaluate as it stood before it was
// parallelized: one pass over the held-out set on the network itself, the
// loss summed as it goes.
func refClassifierEvaluate(net *nn.Network, test data.Classification) (loss, acc float64) {
	n := test.Len()
	if n == 0 {
		return 0, 0
	}
	correct := 0
	for i := 0; i < n; i++ {
		x := test.Input(i)
		label := test.Label(i)
		logits := net.Forward(x)
		if tensor.ArgMax(logits) == label {
			correct++
		}
		probs := make([]float64, len(logits))
		tensor.SoftmaxTo(probs, logits)
		loss += -math.Log(math.Max(probs[label], 1e-12))
	}
	return loss / float64(n), float64(correct) / float64(n)
}

// refLanguageModelEvaluate is LanguageModel.Evaluate before it was
// parallelized.
func refLanguageModelEvaluate(lm *nn.CharLM, windows [][]int) (loss, acc float64) {
	var totalLoss float64
	var preds, correct int
	for _, w := range windows {
		l, p, c := lm.SeqLossWith(lm.NewSeqScratch(), w)
		totalLoss += l
		preds += p
		correct += c
	}
	if preds == 0 {
		return 0, 0
	}
	return totalLoss / float64(preds), float64(correct) / float64(preds)
}

// firstN is the first n samples of a classification set.
type firstN struct {
	data.Classification
	n int
}

func (f firstN) Len() int { return f.n }

func sameResult(t *testing.T, what string, gotLoss, gotAcc, wantLoss, wantAcc float64) {
	t.Helper()
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) ||
		math.Float64bits(gotAcc) != math.Float64bits(wantAcc) {
		t.Errorf("%s: parallel (%v, %v) != sequential (%v, %v)", what, gotLoss, gotAcc, wantLoss, wantAcc)
	}
}

// TestClassifierEvaluateMatchesSequential: the fanned-out evaluation is
// the sequential one to the last bit — for an empty set, sets smaller than
// the worker count (empty chunks), sizes the chunking does not divide, and
// across a SetParams and a Train between two calls (the replicas alias the
// parameter plane, so they must see both). Run under -race this is also
// the proof that the workers share nothing they write.
func TestClassifierEvaluateMatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 30, 100} {
		m, ds := newTestClassifier(int64(10 + n))
		m.test = firstN{ds.TestSet(), n}

		wantLoss, wantAcc := refClassifierEvaluate(m.net, m.test)
		loss, acc := m.Evaluate()
		sameResult(t, "fresh", loss, acc, wantLoss, wantAcc)

		p := m.Params()
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range p {
			p[i] += 0.05 * rng.NormFloat64()
		}
		m.SetParams(p)
		wantLoss2, wantAcc2 := refClassifierEvaluate(m.net, m.test)
		loss, acc = m.Evaluate()
		sameResult(t, "after SetParams", loss, acc, wantLoss2, wantAcc2)
		if n > 0 && wantLoss2 == wantLoss {
			t.Error("SetParams did not change the held-out loss; the test proves nothing")
		}

		m.Train([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 1, 0.05)
		wantLoss, wantAcc = refClassifierEvaluate(m.net, m.test)
		loss, acc = m.Evaluate()
		sameResult(t, "after Train", loss, acc, wantLoss, wantAcc)
	}
}

// foreignLayer is a layer from outside internal/nn: an identity that
// cannot copy itself, so a network holding one has no forward-only replica.
type foreignLayer struct{ size int }

func (foreignLayer) Forward(x []float64) []float64   { return x }
func (foreignLayer) Backward(dy []float64) []float64 { return dy }
func (foreignLayer) ParamBlocks() [][]float64        { return nil }
func (foreignLayer) GradBlocks() [][]float64         { return nil }
func (f foreignLayer) OutSize() int                  { return f.size }

// TestClassifierEvaluateWithoutReplicas: a network that cannot be
// replicated (it holds a foreign layer) is scored by the network alone, in
// sample order.
func TestClassifierEvaluateWithoutReplicas(t *testing.T) {
	ds := data.GenerateImages(data.MNISTLike(50, 20, 1))
	rng := rand.New(rand.NewSource(1))
	dim := len(ds.Input(0))
	net := nn.NewNetwork(foreignLayer{dim}, nn.NewDense(dim, 10, rng))
	m := NewClassifier(net, ds, ds.TestSet(), 10, 1)
	wantLoss, wantAcc := refClassifierEvaluate(net, ds.TestSet())
	loss, acc := m.Evaluate()
	sameResult(t, "foreign-layer net", loss, acc, wantLoss, wantAcc)
	if len(m.scorers) != 1 {
		t.Errorf("%d scorers for a network without replicas, want 1", len(m.scorers))
	}
}

func TestLanguageModelEvaluateMatchesSequential(t *testing.T) {
	// Window is 16, so these held-out lengths give 0, 1, 3 (fewer than
	// the worker count), 6 and 37 test windows.
	for _, testLen := range []int{0, 17, 50, 100, 600} {
		txt := data.GenerateText(data.WikiTextLike(1000, testLen, 3))
		rng := rand.New(rand.NewSource(int64(testLen)))
		lm := nn.NewCharLM(txt.Vocab(), 8, 16, rng)
		m := NewLanguageModel(lm, txt, 3)

		wantLoss, wantAcc := refLanguageModelEvaluate(lm, txt.TestWindows())
		loss, acc := m.Evaluate()
		sameResult(t, "fresh", loss, acc, wantLoss, wantAcc)

		m.Train([]int{0, 1, 2, 3}, 1, 0.3)
		wantLoss, wantAcc = refLanguageModelEvaluate(lm, txt.TestWindows())
		loss, acc = m.Evaluate()
		sameResult(t, "after Train", loss, acc, wantLoss, wantAcc)
	}
}

// TestTrainAndEvaluateDoNotAllocatePerSample: after the first call has
// built the scratch, training allocates nothing and evaluation only what
// starting its workers costs — independent of the number of samples.
func TestTrainAndEvaluateDoNotAllocatePerSample(t *testing.T) {
	m, ds := newTestClassifier(5)
	shard := make([]int, ds.Len())
	for i := range shard {
		shard[i] = i
	}
	m.Train(shard, 1, 0.05)
	m.Evaluate()
	if a := testing.AllocsPerRun(5, func() { m.Train(shard, 1, 0.05) }); a != 0 {
		t.Errorf("Classifier.Train allocates %v times per call over %d samples, want 0", a, len(shard))
	}
	// One closure for the scoring function plus a closure and a goroutine
	// per extra worker; 100 held-out samples.
	if a := testing.AllocsPerRun(5, func() { m.Evaluate() }); a > 2*evalWorkers+2 {
		t.Errorf("Classifier.Evaluate allocates %v times per call over %d samples", a, m.test.Len())
	}

	txt := data.GenerateText(data.WikiTextLike(2000, 200, 1))
	lm := NewLanguageModel(nn.NewCharLM(txt.Vocab(), 8, 16, rand.New(rand.NewSource(1))), txt, 1)
	windows := []int{0, 1, 2, 3, 4, 5, 6, 7}
	lm.Train(windows, 1, 0.3)
	if a := testing.AllocsPerRun(5, func() { lm.Train(windows, 1, 0.3) }); a != 0 {
		t.Errorf("LanguageModel.Train allocates %v times per call over %d windows, want 0", a, len(windows))
	}
}
