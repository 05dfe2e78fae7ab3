package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spyker-fl/spyker/internal/tensor"
)

func TestParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(NewDense(4, 6, rng), NewReLU(6), NewDense(6, 3, rng))
	p := net.Params()
	if len(p) != net.NumParams() {
		t.Fatalf("Params length %d != NumParams %d", len(p), net.NumParams())
	}
	want := 4*6 + 6 + 6*3 + 3
	if net.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", net.NumParams(), want)
	}
	for i := range p {
		p[i] = float64(i)
	}
	net.SetParams(p)
	got := net.Params()
	for i := range got {
		if got[i] != float64(i) {
			t.Fatalf("round trip mismatch at %d: %v", i, got[i])
		}
	}
}

func TestSetParamsWrongLengthPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(NewDense(2, 2, rng))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	net.SetParams([]float64{1})
}

// TestTrainingReducesLoss: plain SGD on a separable toy problem must
// reduce the loss and eventually classify the training points.
func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(NewDense(2, 16, rng), NewReLU(16), NewDense(16, 2, rng))

	xs := [][]float64{{1, 1}, {1, 0.5}, {-1, -1}, {-0.5, -1}}
	ys := []int{0, 0, 1, 1}

	initial := 0.0
	for i := range xs {
		initial += CrossEntropyFromLogits(net.Forward(xs[i]), ys[i])
	}
	for epoch := 0; epoch < 200; epoch++ {
		for i := range xs {
			net.LossAndGrad(xs[i], ys[i])
		}
		net.Step(0.1, len(xs), 5)
	}
	final := 0.0
	for i := range xs {
		final += CrossEntropyFromLogits(net.Forward(xs[i]), ys[i])
		if tensor.ArgMax(net.Forward(xs[i])) != ys[i] {
			t.Errorf("example %d misclassified after training", i)
		}
	}
	if final >= initial {
		t.Errorf("loss did not decrease: %.4f -> %.4f", initial, final)
	}
}

func TestStepZeroesGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewNetwork(NewDense(3, 2, rng))
	net.LossAndGrad([]float64{1, 2, 3}, 0)
	net.Step(0.01, 1, 0)
	for _, g := range net.gradBacking {
		if g != 0 {
			t.Fatal("gradients not zeroed after Step")
		}
	}
}

func TestStepClipBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork(NewDense(1, 1, rng))
	before := net.Params()
	// Inject a huge gradient through a large input.
	net.LossAndGrad([]float64{1e9}, 0)
	net.Step(1, 1, 0.5)
	after := net.Params()
	for i := range before {
		if d := math.Abs(after[i] - before[i]); d > 0.5+1e-9 {
			t.Errorf("param %d moved by %v, clip was 0.5", i, d)
		}
	}
}

func TestStepInvalidBatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork(NewDense(1, 1, rng))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	net.Step(0.1, 0, 0)
}

func TestConvOutShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := NewConv2D(3, 12, 12, 8, 3, rng)
	if c.OutSize() != 8*10*10 {
		t.Errorf("OutSize = %d, want 8 channels of 10x10", c.OutSize())
	}
}

func TestMaxPoolForward(t *testing.T) {
	p := NewMaxPool2D(1, 4, 4)
	x := []float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}
	out := p.Forward(x)
	want := []float64{6, 8, 14, 16}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("pool forward = %v", out)
		}
	}
	// Backward routes gradient to the argmax positions only.
	dx := p.Backward([]float64{1, 1, 1, 1})
	var nonzero int
	for _, v := range dx {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 4 {
		t.Errorf("pool backward spread to %d cells, want 4", nonzero)
	}
}

func TestMaxPoolOddSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for odd input")
		}
	}()
	NewMaxPool2D(1, 5, 4)
}

func TestConvKernelTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for oversized kernel")
		}
	}()
	NewConv2D(1, 2, 2, 1, 3, rand.New(rand.NewSource(1)))
}

func TestNewNetworkEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty network")
		}
	}()
	NewNetwork()
}
