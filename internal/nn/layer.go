// Package nn is a small, dependency-free neural-network library built for
// the federated-learning experiments in this repository. It provides dense,
// convolutional, pooling, embedding and LSTM layers with explicit
// backpropagation, plain SGD, and — crucially for federated learning — the
// ability to flatten any model into a single []float64 parameter vector and
// load one back.
//
// # The ordering contract
//
// Every seeded experiment in this repository is reproducible to the last
// bit, and the accuracy curves, time-to-target figures and determinism
// tests all lean on that. Floating-point addition is not associative, so
// the contract the kernels keep is about order, not about formulas: every
// accumulator — a convolution output, a weight-gradient entry, a row of a
// matrix-vector product — receives the same additions in the same order
// as the plain nested loop over it would make, and an operand that the
// plain loop skips (an upstream gradient that is exactly zero) is skipped,
// never added as a signed zero. Within that contract the kernels are free
// to do what the plain loops cannot: keep filter taps and gradient sums in
// registers across a whole output plane, run several independent
// accumulator chains side by side (one chain is bound by add latency, not
// by arithmetic throughput), decide ReLU and max-pool outcomes on bit
// patterns instead of unpredictable branches, and skip an input gradient
// nobody reads. A SIMD lane is one more accumulator running beside the
// others: internal/tensor's AVX2 backend (the matrix kernels, the 3x3
// convolution sweep behind Conv2D.Forward and the SGD step behind every
// Step method) puts four rows of a matrix-vector product, four columns of
// its transpose, or four neighbouring convolution outputs in the four lanes
// of a register, multiplies and adds with separate instructions, and never
// lets a value cross from one lane to another. ReLU, MaxPool2D and
// Conv2D's bias fill run there too (tensor.ReLUTo, ReLUGradTo, MaxPool2x2,
// Fill), four elements or pooling windows per register, and add nothing:
// each lane takes one operand's bits or +0 through a mask decided as the
// Go loop decides it. What the contract rules out
// is everything that reassociates or rounds differently: split
// accumulators — and so one accumulator spread over several lanes, and the
// horizontal add that would collect it — fusing a multiply into an add the
// Go code writes (math.FMA, or a VFMADD* instruction in its place), a
// blocked matmul behind im2col, and summing per-worker gradient planes
// (A + B where the sequential code computes ((A + b1) + b2) + ...), which
// is why a training batch is not parallelized across samples. A function
// the Go code calls is a different matter: it keeps its bits when the
// kernel runs that function's own operations. The tree owns the two it
// calls, tensor.Exp and tensor.Tanh (math.Exp's amd64 FMA path and
// math.Tanh, in Go with math.FMA where that assembly fuses), so no bit
// depends on the CPU's FMA or on GODEBUG=cpu.fma=off. The LSTM's gates
// (tensor.SigmoidTo, tensor.TanhTo) and the softmax's exponentials run
// tensor.Exp four lanes at a time, fused exactly where it calls math.FMA.
// Parallelism lives where no sum crosses a worker: held-out
// evaluation in internal/fl scores samples on forward-only replicas
// (Network.Replica) and adds the per-sample losses up in index order
// afterwards.
//
// The contract's bits are amd64's, where the Go compiler never fuses a
// multiply into an add. Where it does (arm64, ppc64le, s390x, riscv64) this
// package writes float64(x*y) + z, which keeps each product rounded, but
// internal/tensor's portable loops do not yet, so a run there gives other
// bits — still reproducible run to run on that machine, but not the
// recorded ones.
//
// The plain loops survive as reference implementations in
// reference_test.go (and internal/tensor's), which demand bit-equal
// outputs and gradients from the production kernels on both backends;
// internal/experiments' TestCrossCommitOracle pins whole seeded runs to
// bits recorded before the kernels were rewritten.
package nn

import (
	"math/rand"

	"github.com/spyker-fl/spyker/internal/tensor"
)

// Layer is one differentiable stage of a feed-forward network. Forward and
// Backward are stateful: Backward must be called with the gradient of the
// loss with respect to the output of the immediately preceding Forward
// call, and it accumulates parameter gradients internally until the owning
// network's Step applies and zeroes them.
//
// The set of layers is closed: the unexported methods admit only this
// package's Dense, Conv2D, MaxPool2D and ReLU, the layers the paper's
// models use. Each of them can move its parameters into its Network's one
// parameter plane, take its gradients and scratch from the training
// scratch its Network borrows, skip the input gradient when it is first in
// the stack, and copy itself for forward-only evaluation.
type Layer interface {
	// Forward computes the layer output for input x. The returned slice
	// is owned by the layer and is overwritten by the next call.
	Forward(x []float64) []float64
	// Backward takes dL/d(output) and returns dL/d(input), accumulating
	// parameter gradients as a side effect.
	Backward(dy []float64) []float64
	// OutSize reports the length of the Forward output vector.
	OutSize() int

	// bind points the layer's parameter blocks, their gradients and its
	// training scratch into c's planes (see carver) and returns c advanced
	// past them.
	bind(c carver) carver
	// backwardParams accumulates exactly the parameter gradients Backward
	// would, without producing dL/d(input): for a convolution that is half
	// of the backward pass.
	backwardParams(dy []float64)
	// replica returns a forward-only copy that aliases the original's
	// parameter storage (read-only) and owns only the scratch Forward
	// writes.
	replica() Layer
}

// Dense is a fully connected layer computing y = W*x + b.
type Dense struct {
	in, out int
	w       *tensor.Matrix
	b       []float64

	// Training scratch (see bind), nil at rest.
	gw              tensor.Matrix
	gb              []float64
	lastX, outV, dx []float64
}

// NewDense creates a Dense layer with Xavier-initialized weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{in: in, out: out, w: tensor.NewMatrix(out, in), b: make([]float64, out), gw: tensor.Matrix{Rows: out, Cols: in}}
	d.w.XavierInit(rng, in, out)
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x []float64) []float64 {
	copy(d.lastX, x)
	d.w.MatVec(d.outV, x)
	tensor.AddInPlace(d.outV, d.b)
	return d.outV
}

// Backward implements Layer.
func (d *Dense) Backward(dy []float64) []float64 {
	d.backwardParams(dy)
	d.w.MatVecT(d.dx, dy)
	return d.dx
}

func (d *Dense) backwardParams(dy []float64) {
	d.gw.AddOuter(1, dy, d.lastX)
	tensor.AddInPlace(d.gb, dy)
}

func (d *Dense) replica() Layer {
	return &Dense{in: d.in, out: d.out, w: d.w, b: d.b, outV: isolated(d.out)}
}

func (d *Dense) bind(c carver) carver {
	d.w.Data, d.gw.Data = c.block(d.w.Data)
	d.b, d.gb = c.block(d.b)
	d.lastX, d.outV, d.dx = c.floats(d.in), c.floats(d.out), c.floats(d.in)
	return c
}

// OutSize implements Layer.
func (d *Dense) OutSize() int { return d.out }

// ReLU is the rectified-linear activation.
type ReLU struct {
	size     int
	outV, dx []float64 // training scratch (see bind), nil at rest
}

// NewReLU creates a ReLU over vectors of the given size.
func NewReLU(size int) *ReLU { return &ReLU{size: size} }

// Forward implements Layer: out = v where v > 0, else +0 (so -0, every
// negative and every NaN map to +0), decided on the bit pattern by
// tensor.ReLUTo.
func (r *ReLU) Forward(x []float64) []float64 {
	tensor.ReLUTo(r.outV[:len(x)], x)
	return r.outV
}

// Backward implements Layer: dx = dy where the output was > 0, else +0.
// An output of Forward is +0 or a positive number, never -0 or NaN, so
// "> 0" is "bit pattern not zero", tensor.ReLUGradTo's test.
func (r *ReLU) Backward(dy []float64) []float64 {
	tensor.ReLUGradTo(r.dx, dy[:len(r.outV)], r.outV)
	return r.dx
}

func (r *ReLU) replica() Layer { return &ReLU{size: r.size, outV: isolated(r.size)} }

func (r *ReLU) backwardParams(dy []float64) {}

func (r *ReLU) bind(c carver) carver {
	r.outV, r.dx = c.floats(r.size), c.floats(r.size)
	return c
}

// OutSize implements Layer.
func (r *ReLU) OutSize() int { return r.size }
