package nn

import (
	"fmt"
	"math"

	"github.com/spyker-fl/spyker/internal/tensor"
)

// rebinder is implemented by parameterized layers that can re-home their
// parameter and gradient storage into network-owned contiguous arrays.
// rebind must claim one (param, grad) view pair per ParamBlocks entry, in
// ParamBlocks order, and adopt the views after moving the current values
// into them (see adopt). All built-in layers implement it; a network
// containing a foreign parameterized layer falls back to per-block copy
// semantics.
type rebinder interface {
	rebind(claim func(n int) (param, grad []float64))
}

// adopt claims a view pair of len(p) and moves the current parameter and
// gradient values into it; layers assign the returned slices over their
// old storage.
func adopt(claim func(int) ([]float64, []float64), p, g []float64) ([]float64, []float64) {
	np, ng := claim(len(p))
	copy(np, p)
	copy(ng, g)
	return np, ng
}

// paramBackwarder is implemented by parameterized layers that can run the
// backward pass without producing dL/d(input). A Network uses it on its
// first layer, whose input gradient nobody reads — for a convolution that
// is half of the backward pass. backwardParams must accumulate exactly the
// parameter gradients Backward would.
type paramBackwarder interface {
	backwardParams(dy []float64)
}

// replicator is implemented by layers that can produce a forward-only
// copy of themselves: one that aliases the original's parameter storage
// (read-only) and owns only the scratch Forward writes. All built-in
// layers implement it.
type replicator interface {
	replica() Layer
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
// implicit softmax-cross-entropy head. It owns the flattening of all layer
// parameters into a single vector, which is the representation federated
// aggregation operates on. When every parameterized layer supports
// rebinding (all built-in ones do), the layer blocks are views into one
// contiguous backing array, so the flat vector exists at all times instead
// of being materialized per exchange.
type Network struct {
	layers  []Layer
	nParams int

	// backing/gradBacking are the contiguous parameter and gradient
	// planes the layer blocks alias; nil when a foreign layer forced the
	// legacy block-by-block representation.
	backing     []float64
	gradBacking []float64

	// first is layers[0] when it can skip its input gradient, else nil.
	first paramBackwarder

	probs   []float64
	dLogits []float64
}

// NewNetwork assembles a network from layers. The final layer's output is
// interpreted as class logits.
func NewNetwork(layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: NewNetwork needs at least one layer")
	}
	n := &Network{layers: layers}
	contiguous := true
	for _, l := range layers {
		blocks := l.ParamBlocks()
		for _, blk := range blocks {
			n.nParams += len(blk)
		}
		if len(blocks) > 0 {
			if _, ok := l.(rebinder); !ok {
				contiguous = false
			}
		}
	}
	if contiguous && n.nParams > 0 {
		n.backing = make([]float64, n.nParams)
		n.gradBacking = make([]float64, n.nParams)
		cur := &flatCursor{params: n.backing, grads: n.gradBacking}
		for _, l := range layers {
			if r, ok := l.(rebinder); ok {
				r.rebind(cur.claim)
			}
		}
		cur.done()
	}
	n.first, _ = layers[0].(paramBackwarder)
	out := layers[len(layers)-1].OutSize()
	n.probs = make([]float64, out)
	n.dLogits = make([]float64, out)
	return n
}

// NumParams returns the total number of trainable parameters.
func (n *Network) NumParams() int { return n.nParams }

// Params returns a copy of all parameters flattened into one vector, layer
// by layer, block by block.
func (n *Network) Params() []float64 {
	out := make([]float64, n.nParams)
	if n.backing != nil {
		copy(out, n.backing)
		return out
	}
	i := 0
	for _, l := range n.layers {
		for _, blk := range l.ParamBlocks() {
			i += copy(out[i:], blk)
		}
	}
	return out
}

// ParamsView returns the live flat parameter vector — a zero-copy
// read-only borrow of the contiguous backing array. Callers must not
// modify it and must copy whatever they retain across a training step.
// For a network containing foreign layers (no contiguous backing) it
// degrades to a Params copy.
func (n *Network) ParamsView() []float64 {
	if n.backing != nil {
		return n.backing
	}
	return n.Params()
}

// SetParams loads a flat parameter vector previously produced by Params
// (of a network with identical architecture).
func (n *Network) SetParams(p []float64) {
	if len(p) != n.nParams {
		panic(fmt.Sprintf("nn: SetParams length %d != %d", len(p), n.nParams))
	}
	if n.backing != nil {
		copy(n.backing, p)
		return
	}
	i := 0
	for _, l := range n.layers {
		for _, blk := range l.ParamBlocks() {
			i += copy(blk, p[i:i+len(blk)])
		}
	}
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
	if n.first != nil {
		n.first.backwardParams(g)
	} else {
		n.layers[0].Backward(g)
	}
	return loss
}

// Replica returns a forward-only copy of the network for evaluating it
// from another goroutine: the copy's layers alias this network's
// parameter storage, so it always computes with the current parameters,
// and own only the scratch Forward writes. Use nothing but Forward on it,
// and do not run it while the original trains or loads parameters. It
// returns nil when a layer cannot be replicated (a foreign layer).
func (n *Network) Replica() *Network {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		r, ok := l.(replicator)
		if !ok {
			return nil
		}
		layers[i] = r.replica()
	}
	return &Network{layers: layers, nParams: n.nParams}
}

// Step applies accumulated gradients with SGD at rate lr, scaled by
// 1/batchSize, then zeroes the gradients. Gradients are clipped to
// [-clip, clip] per coordinate after scaling; pass clip <= 0 to disable.
func (n *Network) Step(lr float64, batchSize int, clip float64) {
	if batchSize <= 0 {
		panic("nn: Step with non-positive batch size")
	}
	scale := 1 / float64(batchSize)
	if n.backing != nil {
		tensor.SGDStep(n.backing, n.gradBacking, lr, scale, clip)
		return
	}
	for _, l := range n.layers {
		params := l.ParamBlocks()
		grads := l.GradBlocks()
		for bi, g := range grads {
			tensor.SGDStep(params[bi], g, lr, scale, clip)
		}
	}
}

// CrossEntropyFromLogits returns the softmax cross-entropy of logits
// against label without touching any gradient state, and without
// allocating: it is called once per held-out sample.
func CrossEntropyFromLogits(logits []float64, label int) float64 {
	return -math.Log(math.Max(tensor.SoftmaxAt(logits, label), 1e-12))
}
