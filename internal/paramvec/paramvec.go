// Package paramvec makes the flat model-parameter vector — the unit every
// federated-learning exchange in this repository moves — a first-class,
// reusable piece of memory. It provides Vec, a view over a contiguous
// []float64 with the fused in-place kernels aggregation rules need, and
// Pool, a size-keyed sync.Pool-backed free-list so hot paths recycle
// buffers instead of allocating a model-sized slice per message.
//
// Every kernel works in place and panics on length mismatch, mirroring the
// internal/tensor conventions; none of them allocate.
package paramvec

import (
	"math"

	"github.com/spyker-fl/spyker/internal/tensor"
)

// Vec is a flat parameter (or gradient, or delta) vector. It is an alias
// view: converting a []float64 to Vec shares storage, so the kernels below
// mutate the underlying array directly.
type Vec []float64

// New allocates a zeroed vector of length n.
func New(n int) Vec { return make(Vec, n) }

// CopyFrom overwrites v with src. Lengths must match.
func (v Vec) CopyFrom(src []float64) {
	mustSameLen(len(v), len(src))
	copy(v, src)
}

// Zero sets every element to 0.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// AxpyInto computes v += alpha*x, the classic saxpy accumulation.
//
//spyker:noalloc
func (v Vec) AxpyInto(alpha float64, x []float64) {
	mustSameLen(len(v), len(x))
	for i := range v {
		v[i] += alpha * x[i]
	}
}

// WeightedMergeInto moves v toward x by weight w: v += w*(x - v). This is
// the staleness-weighted client merge (Alg. 1) and the sigmoid-weighted
// server merge (Alg. 2) of the Spyker protocol, and the convex-combination
// step of every baseline aggregation rule. w=0 leaves v unchanged, w=1
// replaces v with x. The sweep is tensor.WeightedMerge.
//
//spyker:noalloc
func (v Vec) WeightedMergeInto(w float64, x []float64) {
	tensor.WeightedMerge(v, w, x)
}

// MergeReplyInto is WeightedMergeInto that also writes the merged model
// back over the update it merged: v[i] += w*(x[i] - v[i]); x[i] = v[i], in
// one sweep. A server answers every client update with the model that
// update produced, so the reply can leave in the buffer the update arrived
// in, and the vector is read once and written once instead of being merged
// and then copied. x must not overlap v.
//
// The update of a client last heard from many messages ago is not in any
// cache, so the sweep (tensor.MergeReply) walks the vector as four quarters
// side by side to keep loads in flight. Element for element it is still
// the expression of WeightedMergeInto and nothing is summed across
// elements, so v ends up with the same bits and x with a copy of them.
//
//spyker:noalloc
func (v Vec) MergeReplyInto(w float64, x []float64) {
	tensor.MergeReply(v, w, x)
}

// AddScaledDiff computes v += alpha*(x - y) without materializing the
// difference — the buffered-delta accumulation of FedBuff-style rules.
//
//spyker:noalloc
func (v Vec) AddScaledDiff(alpha float64, x, y []float64) {
	mustSameLen(len(v), len(x))
	mustSameLen(len(v), len(y))
	for i := range v {
		v[i] += alpha * (x[i] - y[i])
	}
}

// DiffInto computes v = x - y.
//
//spyker:noalloc
func (v Vec) DiffInto(x, y []float64) {
	mustSameLen(len(v), len(x))
	mustSameLen(len(v), len(y))
	for i := range v {
		v[i] = x[i] - y[i]
	}
}

// L2Norm returns the Euclidean norm of v.
func (v Vec) L2Norm() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func mustSameLen(a, b int) {
	if a != b {
		panic("paramvec: length mismatch")
	}
}
