package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGrad estimates d loss / d param[i] by central differences for a
// sample of parameter indices and compares against the analytic gradient.
func checkNetworkGradients(t *testing.T, net *Network, x []float64, label int, tol float64) {
	t.Helper()
	net.LossAndGrad(x, label)
	analytic := append([]float64(nil), net.train.grad...)
	net.Step(0, 1, 0) // zero the grads without moving params (lr=0)

	params := net.Params()
	rng := rand.New(rand.NewSource(7))
	const eps = 1e-5
	checks := 60
	if checks > len(params) {
		checks = len(params)
	}
	for c := 0; c < checks; c++ {
		i := rng.Intn(len(params))
		orig := params[i]

		params[i] = orig + eps
		net.SetParams(params)
		lossPlus := lossOnly(net, x, label)

		params[i] = orig - eps
		net.SetParams(params)
		lossMinus := lossOnly(net, x, label)

		params[i] = orig
		net.SetParams(params)

		numeric := (lossPlus - lossMinus) / (2 * eps)
		if math.Abs(numeric-analytic[i]) > tol*(1+math.Abs(numeric)) {
			t.Errorf("param %d: numeric %.8f vs analytic %.8f", i, numeric, analytic[i])
		}
	}
}

func lossOnly(net *Network, x []float64, label int) float64 {
	return CrossEntropyFromLogits(net.Forward(x), label)
}

// TestDenseGradient stacks two Dense layers with nothing between them: the
// loss is smooth in every parameter and every hidden unit carries gradient,
// so the whole of Dense.Backward (weights, biases, input gradient) is held
// against the central differences.
func TestDenseGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(
		NewDense(6, 8, rng),
		NewDense(8, 4, rng),
	)
	x := randVec(rng, 6)
	checkNetworkGradients(t, net, x, 2, 1e-4)
}

func TestReLUGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(
		NewDense(5, 10, rng),
		NewReLU(10),
		NewDense(10, 3, rng),
	)
	x := randVec(rng, 5)
	checkNetworkGradients(t, net, x, 0, 1e-4)
}

func TestConvPoolGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv := NewConv2D(2, 8, 8, 3, 3, rng) // 3 x 6 x 6
	pool := NewMaxPool2D(3, 6, 6)         // 3 x 3 x 3
	net := NewNetwork(
		conv,
		NewReLU(conv.OutSize()),
		pool,
		NewDense(pool.OutSize(), 5, rng),
	)
	x := randVec(rng, 2*8*8)
	checkNetworkGradients(t, net, x, 4, 1e-4)
}

func TestDeepCNNGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	conv1 := NewConv2D(1, 10, 10, 4, 3, rng) // 4 x 8 x 8
	conv2 := NewConv2D(4, 8, 8, 4, 3, rng)   // 4 x 6 x 6
	pool := NewMaxPool2D(4, 6, 6)
	net := NewNetwork(
		conv1,
		NewReLU(conv1.OutSize()),
		conv2,
		pool,
		NewDense(pool.OutSize(), 6, rng),
	)
	x := randVec(rng, 100)
	checkNetworkGradients(t, net, x, 3, 1e-4)
}

func TestCharLMGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lm := NewCharLM(6, 4, 5, rng)
	seq := []int{0, 3, 1, 5, 2, 4, 0, 1}

	lm.SeqLossAndGrad(seq)
	analytic := append([]float64(nil), lm.train.grad...)
	lm.Step(0, 1, 0) // zero the grads without moving params (lr=0)

	params := lm.Params()
	sc := lm.NewSeqScratch()
	const eps = 1e-5
	rng2 := rand.New(rand.NewSource(9))
	for c := 0; c < 80; c++ {
		i := rng2.Intn(len(params))
		orig := params[i]

		params[i] = orig + eps
		lm.SetParams(params)
		lossPlus, _, _ := lm.SeqLossWith(sc, seq)

		params[i] = orig - eps
		lm.SetParams(params)
		lossMinus, _, _ := lm.SeqLossWith(sc, seq)

		params[i] = orig
		lm.SetParams(params)

		numeric := (lossPlus - lossMinus) / (2 * eps)
		if math.Abs(numeric-analytic[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("param %d: numeric %.8f vs analytic %.8f", i, numeric, analytic[i])
		}
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
