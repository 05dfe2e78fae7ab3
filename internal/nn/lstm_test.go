package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestCharLMParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lm := NewCharLM(8, 4, 6, rng)
	want := 8*4 + 4*6*4 + 4*6*6 + 4*6 + 8*6 + 8
	if lm.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", lm.NumParams(), want)
	}
	p := lm.Params()
	for i := range p {
		p[i] = float64(i) / 100
	}
	lm.SetParams(p)
	got := lm.Params()
	for i := range got {
		if got[i] != p[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestCharLMShortSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lm := NewCharLM(4, 3, 3, rng)
	if loss, preds := lm.SeqLossAndGrad([]int{1}); loss != 0 || preds != 0 {
		t.Errorf("single-char sequence should be a no-op, got loss=%v preds=%d", loss, preds)
	}
	if loss, preds := lm.SeqLossAndGrad(nil); loss != 0 || preds != 0 {
		t.Errorf("empty sequence should be a no-op, got loss=%v preds=%d", loss, preds)
	}
	if loss, preds, _ := lm.SeqLossWith(lm.NewSeqScratch(), []int{2}); loss != 0 || preds != 0 {
		t.Error("SeqLossWith on single char should be a no-op")
	}
}

// TestCharLMLearnsDeterministicCycle: on the fully deterministic sequence
// 0,1,2,0,1,2,... the LM must drive per-char loss near zero.
func TestCharLMLearnsDeterministicCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lm := NewCharLM(3, 6, 12, rng)
	seq := make([]int, 30)
	for i := range seq {
		seq[i] = i % 3
	}
	sc := lm.NewSeqScratch()
	initLoss, preds, _ := lm.SeqLossWith(sc, seq)
	initAvg := initLoss / float64(preds)
	for epoch := 0; epoch < 300; epoch++ {
		if _, n := lm.SeqLossAndGrad(seq); n > 0 {
			lm.Step(0.5, n, 5)
		}
	}
	loss, preds, correct := lm.SeqLossWith(sc, seq)
	avg := loss / float64(preds)
	if avg >= initAvg {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", initAvg, avg)
	}
	if avg > 0.2 {
		t.Errorf("deterministic cycle not learned, avg loss %.4f", avg)
	}
	if correct != preds {
		t.Errorf("only %d/%d next chars predicted", correct, preds)
	}
	// exp(avg loss) is the perplexity; for a learned deterministic
	// sequence it should be close to 1, far below uniform (3).
	if ppl := math.Exp(avg); ppl > 1.5 {
		t.Errorf("perplexity %.3f, want near 1", ppl)
	}
}

func TestCharLMStepInvalidCountPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lm := NewCharLM(3, 2, 2, rng)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	lm.Step(0.1, 0, 0)
}

func TestCharLMString(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lm := NewCharLM(8, 4, 6, rng)
	if s := lm.String(); !strings.Contains(s, "vocab=8") {
		t.Errorf("String = %q, want the vocabulary size in it", s)
	}
}

// TestCharLMDeterministicTraining: same seed, same data, same steps →
// byte-identical parameters. FL determinism depends on this.
func TestCharLMDeterministicTraining(t *testing.T) {
	build := func() *CharLM {
		lm := NewCharLM(5, 3, 4, rand.New(rand.NewSource(11)))
		seq := []int{0, 2, 4, 1, 3, 0, 2, 4}
		for i := 0; i < 10; i++ {
			if _, n := lm.SeqLossAndGrad(seq); n > 0 {
				lm.Step(0.1, n, 1)
			}
		}
		return lm
	}
	a := build().Params()
	b := build().Params()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic training at param %d", i)
		}
	}
}
