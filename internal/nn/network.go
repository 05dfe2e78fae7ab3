package nn

import (
	"fmt"
	"math"

	"github.com/spyker-fl/spyker/internal/tensor"
)

// adopt claims a view pair of len(p) and moves the current parameter and
// gradient values into it; layers assign the returned slices over their
// old storage.
func adopt(claim func(int) ([]float64, []float64), p, g []float64) ([]float64, []float64) {
	np, ng := claim(len(p))
	copy(np, p)
	copy(ng, g)
	return np, ng
}

// isolated returns zeroed scratch of length n with a cache line of unused
// padding on either side. Replicas run on different cores, and the
// allocator packs small objects of one size side by side: without the
// padding, three replicas' ten-float logits would sit in the same two
// cache lines and every forward pass would steal them from the others.
func isolated(n int) []float64 {
	const line = 8 // float64s per 64-byte cache line
	return make([]float64, n+2*line)[line : line+n : line+n]
}

// Network is a feed-forward classifier: a stack of layers followed by an
// implicit softmax-cross-entropy head. It owns one contiguous parameter
// plane and one gradient plane, and every layer's blocks are views into
// them, so the flat vector federated aggregation operates on exists at all
// times instead of being materialized per exchange.
type Network struct {
	layers []Layer

	// backing/gradBacking are the parameter and gradient planes the layer
	// blocks alias, layer by layer in stack order.
	backing     []float64
	gradBacking []float64

	probs   []float64
	dLogits []float64
}

// NewNetwork assembles a network from layers, moving their parameters into
// the network's planes. The final layer's output is interpreted as class
// logits.
func NewNetwork(layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: NewNetwork needs at least one layer")
	}
	size := 0
	for _, l := range layers {
		size += l.numParams()
	}
	n := &Network{layers: layers, backing: make([]float64, size), gradBacking: make([]float64, size)}
	// claim hands out successive (param, grad) view pairs; the full-slice
	// expressions keep an append on one view from bleeding into the next.
	off := 0
	claim := func(k int) (p, g []float64) {
		p, g = n.backing[off:off+k:off+k], n.gradBacking[off:off+k:off+k]
		off += k
		return p, g
	}
	for _, l := range layers {
		l.rebind(claim)
	}
	if off != size {
		panic(fmt.Sprintf("nn: layers claimed %d of %d params", off, size))
	}
	out := layers[len(layers)-1].OutSize()
	n.probs = make([]float64, out)
	n.dLogits = make([]float64, out)
	return n
}

// NumParams returns the total number of trainable parameters.
func (n *Network) NumParams() int { return len(n.backing) }

// Params returns a copy of the flat parameter vector.
func (n *Network) Params() []float64 {
	out := make([]float64, len(n.backing))
	copy(out, n.backing)
	return out
}

// ParamsView returns the live flat parameter vector — a zero-copy
// read-only borrow of the parameter plane. Callers must not modify it and
// must copy whatever they retain across a training step.
func (n *Network) ParamsView() []float64 { return n.backing }

// SetParams loads a flat parameter vector previously produced by Params
// (of a network with identical architecture).
func (n *Network) SetParams(p []float64) {
	if len(p) != len(n.backing) {
		panic(fmt.Sprintf("nn: SetParams length %d != %d", len(p), len(n.backing)))
	}
	copy(n.backing, p)
}

// Forward runs the full stack and returns the logits (aliased layer
// storage; copy before retaining).
func (n *Network) Forward(x []float64) []float64 {
	h := x
	for _, l := range n.layers {
		h = l.Forward(h)
	}
	return h
}

// LossAndGrad runs forward on one example, accumulates parameter gradients
// for softmax-cross-entropy against the label, and returns the loss.
func (n *Network) LossAndGrad(x []float64, label int) float64 {
	logits := n.Forward(x)
	tensor.SoftmaxTo(n.probs, logits)
	loss := -math.Log(math.Max(n.probs[label], 1e-12))
	copy(n.dLogits, n.probs)
	n.dLogits[label] -= 1
	g := n.dLogits
	for i := len(n.layers) - 1; i > 0; i-- {
		g = n.layers[i].Backward(g)
	}
	n.layers[0].backwardParams(g) // nobody reads dL/d(input)
	return loss
}

// Replica returns a forward-only copy of the network for evaluating it
// from another goroutine: the copy's layers alias this network's
// parameter storage, so it always computes with the current parameters,
// and own only the scratch Forward writes. Use nothing but Forward on it,
// and do not run it while the original trains or loads parameters.
func (n *Network) Replica() *Network {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		layers[i] = l.replica()
	}
	return &Network{layers: layers, backing: n.backing}
}

// Step applies accumulated gradients with SGD at rate lr, scaled by
// 1/batchSize, then zeroes the gradients. Gradients are clipped to
// [-clip, clip] per coordinate after scaling; pass clip <= 0 to disable.
func (n *Network) Step(lr float64, batchSize int, clip float64) {
	if batchSize <= 0 {
		panic("nn: Step with non-positive batch size")
	}
	tensor.SGDStep(n.backing, n.gradBacking, lr, 1/float64(batchSize), clip)
}

// CrossEntropyFromLogits returns the softmax cross-entropy of logits
// against label without touching any gradient state, and without
// allocating: it is called once per held-out sample.
func CrossEntropyFromLogits(logits []float64, label int) float64 {
	return -math.Log(math.Max(tensor.SoftmaxAt(logits, label), 1e-12))
}
