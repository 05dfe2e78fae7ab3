package tensor

import "fmt"

// This file holds the portable backend of the five hot kernels — the Go
// loops, which run on every architecture and are the fallback on an amd64
// CPU without AVX2 — and the exported entry points of the two kernels that
// are not Matrix methods. kernels_amd64.go (AVX2 assembly, chosen by the
// CPU) and kernels_generic.go (everything else, and -tags purego) decide
// which backend a call reaches; both backends produce the same bits.

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
