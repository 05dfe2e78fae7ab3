package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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
	grad := net.train.grad
	net.Step(0.01, 1, 0)
	for _, g := range grad {
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

// standalone gives a layer used outside a Network training scratch of
// its own.
func standalone[L Layer](l L) L {
	s := l.bind(carver{})
	l.bind(carver{t: netTrain{make([]float64, s.grad), make([]float64, s.f), make([]int, s.i)}})
	return l
}

func TestConvOutShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := NewConv2D(3, 12, 12, 8, 3, rng)
	if c.OutSize() != 8*10*10 {
		t.Errorf("OutSize = %d, want 8 channels of 10x10", c.OutSize())
	}
}

func TestMaxPoolForward(t *testing.T) {
	p := standalone(NewMaxPool2D(1, 4, 4))
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

// mnistShaped is a small network of the paper's MNIST CNN's layer stack.
func mnistShaped(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	conv, pool := NewConv2D(1, 10, 10, 4, 3, rng), NewMaxPool2D(4, 8, 8)
	return NewNetwork(conv, NewReLU(conv.OutSize()), pool,
		NewDense(pool.OutSize(), 12, rng), NewReLU(12), NewDense(12, 10, rng))
}

// TestNetworkAtRestHoldsOnlyItsParameters: a fresh network, and one whose
// last call was Step, holds no slice but views of its parameter plane; one
// mid-batch holds its borrowed scratch, and so does one that ran Forward,
// until its next Step.
func TestNetworkAtRestHoldsOnlyItsParameters(t *testing.T) {
	net := mnistShaped(1)
	rng := rand.New(rand.NewSource(2))
	atRest := func(when string, want bool) {
		t.Helper()
		held := HeldBeyondParams(net)
		if rest := len(held) == 0 && net.train == nil; rest != want {
			t.Errorf("%s: at rest = %v, want %v; held beyond the parameters: %v", when, rest, want, held)
		}
	}
	atRest("fresh", true)
	for batch := 0; batch < 3; batch++ {
		for i := 0; i < 4; i++ {
			net.LossAndGrad(randVec(rng, 100), rng.Intn(10))
		}
		atRest("mid-batch", false)
		net.Step(0.1, 4, 5)
		atRest("after Step", true)
	}
	net.Forward(randVec(rng, 100))
	atRest("after Forward", false)
	net.Step(0.1, 1, 5)
	atRest("after Forward and Step", true)
	net.Replica().Forward(randVec(rng, 100))
	atRest("after a replica's Forward", true)
}

// TestNetworksTrainingAtOnceMatchAlone: four goroutines each train their
// own Network of one shape, so the training scratch passes between
// networks mid-run. Each network ends on the bits it ends on trained
// alone and holds nothing beyond its parameters at rest, and the shape's
// free list made no more scratches than there were trainers.
func TestNetworksTrainingAtOnceMatchAlone(t *testing.T) {
	const trainers = 4
	ForgetTrainScratch()
	train := func(i int) []float64 {
		net := mnistShaped(int64(70 + i))
		rng := rand.New(rand.NewSource(int64(80 + i)))
		for batch := 0; batch < 30; batch++ {
			n := 1 + rng.Intn(5)
			for j := 0; j < n; j++ {
				net.LossAndGrad(randVec(rng, 100), rng.Intn(10))
			}
			net.Step(0.05, n, 5)
		}
		if held := HeldBeyondParams(net); len(held) > 0 || net.train != nil {
			t.Errorf("network %d holds training scratch after its last Step: %v", i, held)
		}
		return net.Params()
	}
	want := make([][]float64, trainers)
	for i := range want {
		want[i] = train(i)
	}
	got := make([][]float64, trainers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = train(i)
		}()
	}
	wg.Wait()
	for i := range got {
		sameBits(t, fmt.Sprintf("network %d trained beside %d others", i, trainers-1), got[i], want[i])
	}
	if made, free := NetTrainScratch(mnistShaped(0)); made > trainers || free != made {
		t.Errorf("%d scratches made, %d free, for %d trainers", made, free, trainers)
	}
}
