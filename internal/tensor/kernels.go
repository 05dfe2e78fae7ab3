package tensor

import (
	"fmt"
	"math"
)

// This file holds the portable backend of the hot kernels — the Go loops,
// which run on every architecture and are the fallback on an amd64 CPU
// without AVX2 — and the exported entry points of the kernels that are not
// Matrix methods: the two nn sweeps (Conv3x3Add, SGDStep), the two
// activation sweeps (SigmoidTo, TanhTo), the CNN's elementwise layers
// (ReLUTo, ReLUGradTo, MaxPool2x2, and Fill, Conv2D's bias fill) and the
// four sweeps of the protocol path (WeightedMerge, MergeReply, MeanInto,
// AllFinite).
// kernels_amd64.go (AVX2 assembly, chosen by the CPU) and
// kernels_generic.go (everything else, -tags purego and -race) decide which
// backend a call reaches; both backends produce the same bits.

// Conv3x3Add adds one input plane's 3x3 "valid" convolution to one output
// plane: out[oy*outW+ox] += sum over (ky, kx) of
// x[(oy+ky)*inW+ox+kx] * w[ky*3+kx], the nine taps added to each output in
// (ky, kx) order. out is outH rows of outW, x must cover outH+2 rows of
// inW >= outW+2, w holds the nine taps. Each output element is one
// accumulator; neighbouring outputs' chains run side by side.
func Conv3x3Add(out []float64, outW int, x []float64, inW int, w []float64) {
	if outW <= 0 || len(out)%outW != 0 || inW < outW+2 || len(w) != 9 {
		panic(fmt.Sprintf("tensor: Conv3x3Add shape: len(out)=%d outW=%d inW=%d len(w)=%d", len(out), outW, inW, len(w)))
	}
	outH := len(out) / outW
	if outH == 0 {
		return
	}
	if len(x) < (outH+2)*inW {
		panic(fmt.Sprintf("tensor: Conv3x3Add input length %d < %d rows of %d", len(x), outH+2, inW))
	}
	conv3x3Add(out, outH, outW, x, inW, w)
}

// SGDStep is the SGD inner loop over a flat parameter/gradient pair:
// p[i] -= lr*clip(g[i]*scale), then g[i] = 0, for every i < len(g). The
// scaled gradient is clipped to [-clip, clip]; clip <= 0 disables
// clipping. p must be at least as long as g.
func SGDStep(p, g []float64, lr, scale, clip float64) {
	if len(p) < len(g) {
		panic(fmt.Sprintf("tensor: SGDStep parameter length %d < gradient length %d", len(p), len(g)))
	}
	if len(g) == 0 {
		return
	}
	sgdStep(p, g, lr, scale, clip)
}

// SigmoidTo writes the logistic function of every element of src to dst:
// dst[i] = 1/(1+Exp(-src[i])), bit for bit. Lengths must match; dst
// may be src.
func SigmoidTo(dst, src []float64) {
	mustSameLen(len(dst), len(src))
	sigmoidTo(dst, src)
}

// TanhTo writes dst[i] = Tanh(src[i]), bit for bit. Lengths must
// match; dst may be src.
func TanhTo(dst, src []float64) {
	mustSameLen(len(dst), len(src))
	tanhTo(dst, src)
}

// ReLUTo writes the rectified src to dst: dst[i] = src[i] where
// src[i] > 0, else +0, so -0, every negative and every NaN of either sign
// give +0. Lengths must match; dst may be src.
func ReLUTo(dst, src []float64) {
	mustSameLen(len(dst), len(src))
	if len(src) == 0 {
		return
	}
	reluTo(dst, src)
}

// ReLUGradTo is ReLU's backward mask: dx[i] = dy[i] where the bit pattern
// of out[i] is not zero, else +0. For an out that ReLUTo wrote (+0 or a
// positive number, never -0 or NaN) that is "where out[i] > 0". Lengths
// must match; dx may be dy.
func ReLUGradTo(dx, dy, out []float64) {
	mustSameLen(len(dx), len(out))
	mustSameLen(len(dy), len(out))
	if len(out) == 0 {
		return
	}
	reluGradTo(dx, dy, out)
}

// MaxPool2x2 is a 2x2 max-pool with stride 2 over rows output rows: output
// row r pools input rows 2r and 2r+1 of x, each inW wide, so a CHW stack of
// planes of even height is one call. out[r*outW+ox], outW = inW/2, is the
// largest of its window's four candidates, visited top-left, top-right,
// bottom-left, bottom-right with a later one winning only if strictly
// greater (so ties and NaNs keep the earliest), and arg[r*outW+ox] is the
// winner's index in x. inW must be even and positive, out and arg
// rows*outW long, and x at least 2*rows*inW; out must not overlap x.
func MaxPool2x2(out []float64, arg []int, x []float64, rows, inW int) {
	if inW <= 0 || inW%2 != 0 || rows < 0 || len(out) != rows*(inW/2) || len(arg) != len(out) {
		panic(fmt.Sprintf("tensor: MaxPool2x2 shape: len(out)=%d len(arg)=%d rows=%d inW=%d", len(out), len(arg), rows, inW))
	}
	if len(x) < 2*rows*inW {
		panic(fmt.Sprintf("tensor: MaxPool2x2 input length %d < %d rows of %d", len(x), 2*rows, inW))
	}
	if rows == 0 {
		return
	}
	maxPool2x2(out, arg, x, rows, inW)
}

// Fill sets every element of a to v.
func Fill(a []float64, v float64) {
	if len(a) == 0 {
		return
	}
	fill(a, v)
}

// WeightedMerge moves v toward x by weight w: v[i] += w*(x[i] - v[i]).
// Lengths must match.
func WeightedMerge(v []float64, w float64, x []float64) {
	mustSameLen(len(v), len(x))
	if len(v) == 0 {
		return
	}
	weightedMerge(v, w, x)
}

// MergeReply is WeightedMerge that also writes the merged vector back over
// x: v[i] += w*(x[i] - v[i]); x[i] = v[i], in one sweep. x must not overlap
// v.
//
// The vector is walked as four quarters side by side, so that eight
// streams keep loads in flight where one sequential stream would wait on
// memory (the prefetchers restart at every page). Element for element it
// is still WeightedMerge's expression and nothing is summed across
// elements, so v ends up with the same bits and x with a copy of them.
func MergeReply(v []float64, w float64, x []float64) {
	mustSameLen(len(v), len(x))
	if len(v) == 0 {
		return
	}
	q := (len(v) / 4) &^ 1
	if q%pageWords == 0 && q > 0 {
		// Quarters a whole number of pages apart would put all eight
		// streams in one cache set.
		q -= lineWords
	}
	mergeReply(v, w, x, q)
}

// A 4 KiB page and a 64-byte cache line, in float64 words.
const (
	pageWords = 512
	lineWords = 8
)

// MeanInto writes the equal-weight mean of models into avg: avg = 0, then
// avg += share*m for every model in order, share = 1/len(models). Every
// model must be as long as avg. Four models are folded per sweep over avg,
// the first four starting from +0 instead of a zeroed avg; every element
// still receives the same additions in the same order.
func MeanInto(avg []float64, models [][]float64) {
	for _, m := range models {
		if len(m) != len(avg) {
			panic(fmt.Sprintf("tensor: model of length %d averaged into %d", len(m), len(avg)))
		}
	}
	if len(avg) == 0 {
		return
	}
	share := 1 / float64(len(models))
	if len(models) < 4 {
		Zero(avg)
	}
	k := 0
	for ; k+4 <= len(models); k += 4 {
		mean4(avg, share, models[k], models[k+1], models[k+2], models[k+3], k == 0)
	}
	for ; k < len(models); k++ {
		AXPY(share, avg, models[k])
	}
}

// AllFinite reports whether no element of v is NaN or ±Inf.
func AllFinite(v []float64) bool {
	if len(v) == 0 {
		return true
	}
	return allFinite(v)
}

// exponentBits is the exponent field of a float64; all ones means NaN or
// ±Inf.
const exponentBits = 0x7FF << 52

// matVecGo: four rows are computed side by side, each row's own order of
// additions untouched.
func (m *Matrix) matVecGo(dst, x []float64) {
	cols := m.Cols
	r := 0
	for ; r+4 <= m.Rows; r += 4 {
		// Re-slicing to len(r0) lets the compiler drop the bounds checks
		// in the loop.
		r0 := m.Data[r*cols : (r+1)*cols]
		r1 := m.Data[(r+1)*cols:][:len(r0)]
		r2 := m.Data[(r+2)*cols:][:len(r0)]
		r3 := m.Data[(r+3)*cols:][:len(r0)]
		x := x[:len(r0)]
		var s0, s1, s2, s3 float64
		for c, w0 := range r0 {
			xv := x[c]
			s0 += w0 * xv
			s1 += r1[c] * xv
			s2 += r2[c] * xv
			s3 += r3[c] * xv
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < m.Rows; r++ {
		row := m.Data[r*cols : (r+1)*cols]
		x := x[:len(row)]
		var s float64
		for c, w := range row {
			s += w * x[c]
		}
		dst[r] = s
	}
}

// matVecTGo: the next four contributing rows are gathered and applied to
// dst[c] in row order in one pass, so dst is loaded and stored once per
// four rows instead of once per row; the additions each dst[c] sees, and
// their order, are unchanged.
func (m *Matrix) matVecTGo(dst, x []float64) {
	Zero(dst)
	cols := m.Cols
	var rows [4][]float64
	var xs [4]float64
	n := 0
	for r, xv := range x {
		if xv == 0 {
			continue
		}
		rows[n], xs[n] = m.Data[r*cols:(r+1)*cols], xv
		if n++; n < 4 {
			continue
		}
		n = 0
		r0, r1, r2, r3 := rows[0][:len(dst)], rows[1][:len(dst)], rows[2][:len(dst)], rows[3][:len(dst)]
		x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
		for c, d := range dst {
			d += r0[c] * x0
			d += r1[c] * x1
			d += r2[c] * x2
			d += r3[c] * x3
			dst[c] = d
		}
	}
	for i := 0; i < n; i++ {
		row, xv := rows[i][:len(dst)], xs[i]
		for c := range dst {
			dst[c] += row[c] * xv
		}
	}
}

// addOuterGo: the elements are independent, so the row loop is simply
// unrolled by four.
func (m *Matrix) addOuterGo(alpha float64, a, b []float64) {
	for r, ar := range a {
		av := alpha * ar
		if av == 0 {
			continue
		}
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		b := b[:len(row)]
		c := 0
		for ; c+4 <= len(row); c += 4 {
			r4, b4 := row[c:c+4:c+4], b[c:c+4:c+4]
			r4[0] += av * b4[0]
			r4[1] += av * b4[1]
			r4[2] += av * b4[2]
			r4[3] += av * b4[3]
		}
		for ; c < len(row); c++ {
			row[c] += av * b[c]
		}
	}
}

func conv3x3AddGo(out []float64, outW int, x []float64, inW int, w []float64) {
	w0, w1, w2, w3, w4, w5, w6, w7, w8 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8]
	for oy := 0; oy*outW < len(out); oy++ {
		row := out[oy*outW:][:outW]
		r0, r1, r2 := x[oy*inW:][:outW+2], x[(oy+1)*inW:][:outW+2], x[(oy+2)*inW:][:outW+2]
		for i, s := range row {
			s += r0[i] * w0
			s += r0[i+1] * w1
			s += r0[i+2] * w2
			s += r1[i] * w3
			s += r1[i+1] * w4
			s += r1[i+2] * w5
			s += r2[i] * w6
			s += r2[i+1] * w7
			s += r2[i+2] * w8
			row[i] = s
		}
	}
}

func sgdStepGo(p, g []float64, lr, scale, clip float64) {
	for i := range g {
		gv := g[i] * scale
		if clip > 0 {
			if gv > clip {
				gv = clip
			} else if gv < -clip {
				gv = -clip
			}
		}
		p[i] -= lr * gv
		g[i] = 0
	}
}

// reluGo: pre-activations are positive about half the time with no
// pattern a branch predictor can learn, so the comparison is done on the
// bit pattern instead of with a branch. Read as a signed integer b, v > 0
// fails when b < 0 (sign bit set: negatives, -0, NaNs with the sign bit)
// and when b > 0x7FF0000000000000 (NaNs without it); zero needs no case
// because masking it or keeping it gives +0 either way.
func reluGo(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		b := int64(math.Float64bits(v))
		keep := ((b - 0x7FF0000000000001) >> 63) &^ (b >> 63) // all ones iff v > 0 or v == +0
		dst[i] = math.Float64frombits(uint64(b & keep))
	}
}

// reluGradGo: "bit pattern not zero", again taken without a branch.
func reluGradGo(dx, dy, out []float64) {
	dy, dx = dy[:len(out)], dx[:len(out)]
	for i, v := range out {
		b := math.Float64bits(v)
		keep := uint64(int64(b|-b) >> 63) // all ones iff b != 0
		dx[i] = math.Float64frombits(math.Float64bits(dy[i]) & keep)
	}
}

// maxPool2x2Go: which candidate wins is unpredictable (after a ReLU about
// half the inputs are zero), so the winner is carried as a bit pattern and
// an index, both updated through a mask instead of a branch.
func maxPool2x2Go(out []float64, arg []int, x []float64, rows, inW int) {
	outW := inW / 2
	for row := 0; row < rows; row++ {
		base := 2 * row * inW
		top, bot := x[base:][:inW], x[base+inW:][:inW]
		o, a := out[row*outW:][:outW], arg[row*outW:][:outW]
		for ox := range o {
			i := 2 * ox
			best, idx := math.Float64bits(top[i]), uint64(i)
			best, idx = takeIfGreater(best, idx, top[i+1], uint64(i+1))
			best, idx = takeIfGreater(best, idx, bot[i], uint64(inW+i))
			best, idx = takeIfGreater(best, idx, bot[i+1], uint64(inW+i+1))
			o[ox] = math.Float64frombits(best)
			a[ox] = base + int(idx)
		}
	}
}

// takeIfGreater returns (bits of v, vIdx) when v > the float whose bits
// are best, else (best, idx). The if only sets a flag — the compiler makes
// it a SETcc, not a jump — and the selection is done with the mask.
func takeIfGreater(best, idx uint64, v float64, vIdx uint64) (uint64, uint64) {
	var gt uint64
	if v > math.Float64frombits(best) {
		gt = 1
	}
	mask := -gt
	return best ^ (best^math.Float64bits(v))&mask, idx ^ (idx^vIdx)&mask
}

func fillGo(a []float64, v float64) {
	for i := range a {
		a[i] = v
	}
}

func weightedMergeGo(v []float64, w float64, x []float64) {
	for i := range v {
		v[i] += w * (x[i] - v[i])
	}
}

// mergeReplyGo: two elements of each quarter per iteration, then the
// elements past the fourth quarter.
func mergeReplyGo(v []float64, w float64, x []float64, q int) {
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

// mean4Go folds four models into avg in one sweep, the running element
// held in a register; fresh starts every element from +0 instead of avg.
func mean4Go(avg []float64, share float64, m0, m1, m2, m3 []float64, fresh bool) {
	if fresh {
		Zero(avg)
	}
	m0, m1, m2, m3 = m0[:len(avg)], m1[:len(avg)], m2[:len(avg)], m3[:len(avg)]
	for i, v := range avg {
		v += share * m0[i]
		v += share * m1[i]
		v += share * m2[i]
		v += share * m3[i]
		avg[i] = v
	}
}

func allFiniteGo(v []float64) bool {
	for _, x := range v {
		if math.Float64bits(x)&exponentBits == exponentBits {
			return false
		}
	}
	return true
}

// The exp sweeps: each element is read before its own slot of dst is
// written, so dst may be src.

func sigmoidGo(dst, src []float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = 1 / (1 + Exp(-x))
	}
}

func tanhGo(dst, src []float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = Tanh(x)
	}
}

// expShiftGo is SoftmaxTo's exponentials: dst[i] = Exp(src[i] - shift).
func expShiftGo(dst, src []float64, shift float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = Exp(v - shift)
	}
}
