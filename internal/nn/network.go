package nn

import (
	"fmt"
	"math"

	"github.com/spyker-fl/spyker/internal/tensor"
)

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
// plane, and every layer's parameter blocks are views into it, so the flat
// vector federated aggregation operates on exists at all times instead of
// being materialized per exchange. At rest that plane is all it holds: a
// training step borrows the gradients and every layer's scratch from the
// free list of the network's shape, and Step gives them back.
type Network struct {
	layers  []Layer
	backing []float64 // the parameter plane, layer by layer in stack order

	scratch *trainList // the free list of the network's netShape; nil for a replica
	train   *netTrain  // borrowed by LossAndGrad or Forward, given back by Step; nil at rest

	probs, dLogits []float64 // views into train
}

// netTrain is what a Network needs only while it trains: the gradient
// plane, parallel to the parameter plane, and the planes the layers carve
// their scratch from (see carver). A step writes every scratch view before
// it reads it, and Step leaves the gradients +0: no bit depends on a
// scratch's last user.
type netTrain struct {
	grad, f []float64
	i       []int
}

// netShape is the lengths of a netTrain's planes, and the key of its free
// list: networks whose layers ask for the same lengths share scratch.
type netShape struct{ grad, f, i int }

// carver hands out successive views of its planes, counting in its
// netShape what it has handed out; a missing plane hands out nil views. A
// zero carver measures a network's shape and lets go of its scratch.
type carver struct {
	netShape
	params []float64 // a new parameter plane to move the blocks into
	t      netTrain
}

func carve[T any](plane []T, off *int, n int) []T {
	*off += n
	if plane == nil {
		return nil
	}
	return plane[*off-n : *off : *off]
}

// block hands out a parameter block's views: p moved into the carver's
// parameter plane, or p itself when it has none, and its gradient.
func (c *carver) block(p []float64) (param, grad []float64) {
	param, grad = p, carve(c.t.grad, &c.grad, len(p))
	if c.params != nil {
		param = c.params[c.grad-len(p) : c.grad : c.grad]
		copy(param, p)
	}
	return param, grad
}

func (c *carver) floats(n int) []float64 { return carve(c.t.f, &c.f, n) }
func (c *carver) ints(n int) []int       { return carve(c.t.i, &c.i, n) }

// NewNetwork assembles a network from layers, moving their parameters into
// the network's plane. The final layer's output is interpreted as class
// logits.
func NewNetwork(layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: NewNetwork needs at least one layer")
	}
	n := &Network{layers: layers}
	shape := n.bind(carver{})
	n.backing = make([]float64, shape.grad)
	n.bind(carver{params: n.backing})
	n.scratch = listFor(shape)
	return n
}

// bind points every layer's views, and the head's, into c's planes and
// returns the shape it carved.
func (n *Network) bind(c carver) netShape {
	for _, l := range n.layers {
		c = l.bind(c)
	}
	out := n.layers[len(n.layers)-1].OutSize()
	n.probs, n.dLogits = c.floats(out), c.floats(out)
	return c.netShape
}

// borrow binds n to a training scratch, taking one from its free list at
// rest. A replica owns its forward scratch and borrows nothing.
func (n *Network) borrow() {
	if n.train != nil || n.scratch == nil {
		return
	}
	n.train, _ = n.scratch.take().(*netTrain)
	if n.train == nil {
		s := n.bind(carver{})
		n.train = &netTrain{make([]float64, s.grad), make([]float64, s.f), make([]int, s.i)}
	}
	n.bind(carver{t: *n.train})
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
// storage; copy before retaining). At rest it borrows the training
// scratch, which the next Step gives back: evaluate through Replica to
// leave the network at rest.
func (n *Network) Forward(x []float64) []float64 {
	n.borrow()
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
// 1/batchSize, then zeroes the gradients and gives the training scratch
// back. Gradients are clipped to [-clip, clip] per coordinate after
// scaling; pass clip <= 0 to disable.
func (n *Network) Step(lr float64, batchSize int, clip float64) {
	if batchSize <= 0 {
		panic("nn: Step with non-positive batch size")
	}
	n.borrow() // at rest the gradients are a free scratch's zeros
	tensor.SGDStep(n.backing, n.train.grad, lr, 1/float64(batchSize), clip)
	n.bind(carver{})
	n.scratch.put(n.train)
	n.train = nil
}

// CrossEntropyFromLogits returns the softmax cross-entropy of logits
// against label without touching any gradient state, and without
// allocating: it is called once per held-out sample.
func CrossEntropyFromLogits(logits []float64, label int) float64 {
	return -math.Log(math.Max(tensor.SoftmaxAt(logits, label), 1e-12))
}
