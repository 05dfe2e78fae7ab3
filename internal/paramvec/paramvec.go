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

import "math"

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
// replaces v with x.
//
//spyker:noalloc
func (v Vec) WeightedMergeInto(w float64, x []float64) {
	mustSameLen(len(v), len(x))
	for i := range v {
		v[i] += w * (x[i] - v[i])
	}
}

// MergeReplyInto is WeightedMergeInto that also writes the merged model
// back over the update it merged: v[i] += w*(x[i] - v[i]); x[i] = v[i], in
// one sweep. A server answers every client update with the model that
// update produced, so the reply can leave in the buffer the update arrived
// in, and the vector is read once and written once instead of being merged
// and then copied. x must not overlap v.
//
// The update of a client last heard from many messages ago is not in any
// cache, so the sweep waits on memory, and one sequential stream keeps too
// few loads in flight (the prefetchers restart at every page). The vector
// is therefore walked as four quarters side by side, two elements of each
// per iteration. Element for element it is still the expression of
// WeightedMergeInto and nothing is summed across elements, so v ends up
// with the same bits and x with a copy of them.
//
//spyker:noalloc
func (v Vec) MergeReplyInto(w float64, x []float64) {
	mustSameLen(len(v), len(x))
	x = x[:len(v)]
	q := (len(v) / 4) &^ 1
	if q%pageWords == 0 && q > 0 {
		// Quarters a whole number of pages apart would put all eight
		// streams in one cache set.
		q -= lineWords
	}
	v0, v1, v2, v3 := v[:q], v[q:2*q], v[2*q:3*q], v[3*q:4*q]
	x0, x1, x2, x3 := x[:q], x[q:2*q], x[2*q:3*q], x[3*q:4*q]
	v1, v2, v3 = v1[:len(v0)], v2[:len(v0)], v3[:len(v0)] // bounds-check hints
	x0, x1, x2, x3 = x0[:len(v0)], x1[:len(v0)], x2[:len(v0)], x3[:len(v0)]
	for i := 0; i < len(v0)-1; i += 2 {
		a, b, c, d := v0[i], v0[i+1], v1[i], v1[i+1]
		a += w * (x0[i] - a)
		b += w * (x0[i+1] - b)
		c += w * (x1[i] - c)
		d += w * (x1[i+1] - d)
		v0[i], v0[i+1], v1[i], v1[i+1] = a, b, c, d
		x0[i], x0[i+1], x1[i], x1[i+1] = a, b, c, d
		e, f, g, h := v2[i], v2[i+1], v3[i], v3[i+1]
		e += w * (x2[i] - e)
		f += w * (x2[i+1] - f)
		g += w * (x3[i] - g)
		h += w * (x3[i+1] - h)
		v2[i], v2[i+1], v3[i], v3[i+1] = e, f, g, h
		x2[i], x2[i+1], x3[i], x3[i+1] = e, f, g, h
	}
	for i := 4 * q; i < len(v); i++ {
		v[i] += w * (x[i] - v[i])
		x[i] = v[i]
	}
}

// A 4 KiB page and a 64-byte cache line, in float64 words.
const (
	pageWords = 512
	lineWords = 8
)

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
