// Package tensor provides the dense vector and matrix kernels that the
// neural-network library is built on. All operations work on flat
// []float64 slices so that federated-learning aggregation code can treat a
// whole model as a single parameter vector.
//
// The hot kernels (MatVec, MatVecT, AddOuter, Conv3x3Add, SGDStep, the
// activation sweeps SigmoidTo and TanhTo with SoftmaxTo's exponentials,
// the CNN's elementwise layers ReLUTo, ReLUGradTo, MaxPool2x2 and Fill,
// and the protocol path's sweeps WeightedMerge, MergeReply, MeanInto,
// AllFinite) keep the ordering contract described in internal/nn's
// package comment: every accumulator receives the same floating-point
// additions in the same order as the plain loop would make, so results
// are reproducible to the last bit. They have two backends that produce
// the same bits: portable Go loops (kernels.go) and, on an amd64 CPU with
// AVX2, hand-written assembly (kernels_amd64.s) in which a SIMD lane is
// one more accumulator running beside the others — a sum the Go code
// writes is a separate VMULPD and VADDPD, never fused, nothing is added
// across lanes (no horizontal add) and no accumulator is split over
// lanes. A function the Go code calls is reproduced with that function's
// own instructions: the exp sweeps run math.Exp's amd64 assembly on four
// lanes, fused exactly where it fuses, and only once a probe has seen
// them agree with math.Exp in this process. The elementwise layers
// compute nothing: each lane (an element, or a pooling window) selects
// the bits of one of its operands, or +0, through a mask, deciding on the
// bit pattern or with an ordered compare exactly as the Go loop decides.
// The CPU alone chooses; building with -tags purego leaves only the Go
// loops. The bits are amd64's: on architectures where the Go compiler
// fuses x*y + z (arm64, ppc64le, s390x, riscv64) the portable loops round
// differently.
package tensor

import (
	"fmt"
	"math"
)

// AddInPlace accumulates b into a element-wise.
func AddInPlace(a, b []float64) {
	mustSameLen(len(a), len(b))
	for i := range a {
		a[i] += b[i]
	}
}

// AXPY computes a[i] += alpha*b[i], the classic saxpy kernel. This is the
// hot path of every federated aggregation rule (W += eta*w*(Wk - W)).
func AXPY(alpha float64, a, b []float64) {
	mustSameLen(len(a), len(b))
	for i := range a {
		a[i] += alpha * b[i]
	}
}

// Clone returns a copy of a.
func Clone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Zero sets every element of a to 0.
func Zero(a []float64) {
	for i := range a {
		a[i] = 0
	}
}

// ArgMax returns the index of the largest element, or -1 for an empty slice.
func ArgMax(a []float64) int {
	if len(a) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(a); i++ {
		if a[i] > a[best] {
			best = i
		}
	}
	return best
}

// SoftmaxTo writes the softmax of a into dst, which must have the same
// length. It avoids allocation on hot paths.
func SoftmaxTo(dst, a []float64) {
	mustSameLen(len(dst), len(a))
	if len(a) == 0 {
		return
	}
	maxv := a[0]
	for _, v := range a[1:] {
		if v > maxv {
			maxv = v
		}
	}
	expShift(dst, a, maxv)
	var sum float64
	for _, e := range dst {
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// SoftmaxAt returns element i of the softmax of a — bit for bit what
// SoftmaxTo would leave in dst[i] — without materializing the others, so
// a loss over one label needs no scratch vector.
func SoftmaxAt(a []float64, i int) float64 {
	maxv := a[0]
	for _, v := range a[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum, ei float64
	for j, v := range a {
		e := math.Exp(v - maxv)
		if j == i {
			ei = e
		}
		sum += e
	}
	return ei * (1 / sum)
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("tensor: length mismatch %d != %d", a, b))
	}
}
