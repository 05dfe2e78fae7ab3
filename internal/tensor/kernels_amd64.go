//go:build amd64 && !purego && !race

package tensor

import "math"

// useAVX2 selects the assembly backend of kernels_amd64.s. It is decided
// once, by the CPU alone: AVX2 and FMA (the exp kernels fuse where Exp
// does), so a CPU with AVX2 but no FMA takes the Go loops for every
// kernel, which give the same bits. Building with -tags purego or -race is
// the only way to force the portable loops on a machine that has both.
var useAVX2 = hasAVX2FMA()

// hasAVX2FMA reports whether the CPU implements AVX2 and FMA and the
// operating system saves the YMM registers (CPUID leaves 1 and 7, XGETBV).
func hasAVX2FMA() bool

// The assembly kernels take element pointers and counts, check nothing,
// and must never be handed an empty operand: the callers below validate
// every length first (as the exported wrappers do for both backends) and
// route zero rows, zero columns and empty slices to the Go loops.
//
// In every one of them but the exp and layer sweeps a SIMD lane is one
// accumulator of the ordering contract, fed by a separate multiply and add
// (never a fused one), and no sum ever crosses lanes. The layer sweeps
// (ReLU, its backward mask, the 2x2 max-pool, Fill) add nothing: a lane is
// an element or a pooling window, given the bits of one operand or +0
// through a mask. The exp sweeps' lanes are
// elements, each run through Exp's own operations (fused where it calls
// math.FMA); they take whole groups of four and return how many elements
// they wrote, stopping before a group that has a lane off Exp's main
// path.

//go:noescape
func matVecAVX2(dst, a *float64, rows, cols int, x *float64)

//go:noescape
func matVecTAVX2(dst, a *float64, rows, cols int, x *float64)

//go:noescape
func addOuterAVX2(m *float64, rows, cols int, alpha float64, a, b *float64)

//go:noescape
func conv3x3AddAVX2(out *float64, outH, outW int, x *float64, inW int, w *float64)

//go:noescape
func sgdStepAVX2(p, grad *float64, n int, lr, scale, clip float64)

//go:noescape
func weightedMergeAVX2(v, x *float64, n int, w float64)

//go:noescape
func mergeReplyAVX2(v, x *float64, n, q int, w float64)

//go:noescape
func mean4AVX2(avg, m0, m1, m2, m3 *float64, n int, share float64, fresh bool)

//go:noescape
func allFiniteAVX2(v *float64, n int) bool

//go:noescape
func reluAVX2(dst, src *float64, n int)

//go:noescape
func reluGradAVX2(dx, dy, out *float64, n int)

//go:noescape
func maxPool2x2AVX2(out *float64, arg *int, x *float64, rows, inW int)

//go:noescape
func fillAVX2(a *float64, n int, v float64)

//go:noescape
func sigmoidAVX2(dst, src *float64, n int) int

//go:noescape
func tanhAVX2(dst, src *float64, n int) int

//go:noescape
func expShiftAVX2(dst, src *float64, n int, shift float64) int

func (m *Matrix) matVec(dst, x []float64) {
	if useAVX2 && m.Rows > 0 && m.Cols > 0 {
		matVecAVX2(&dst[0], &m.Data[0], m.Rows, m.Cols, &x[0])
		return
	}
	m.matVecGo(dst, x)
}

func (m *Matrix) matVecT(dst, x []float64) {
	if useAVX2 && m.Rows > 0 && m.Cols > 0 {
		matVecTAVX2(&dst[0], &m.Data[0], m.Rows, m.Cols, &x[0])
		return
	}
	m.matVecTGo(dst, x)
}

func (m *Matrix) addOuter(alpha float64, a, b []float64) {
	if useAVX2 && m.Rows > 0 && m.Cols > 0 {
		addOuterAVX2(&m.Data[0], m.Rows, m.Cols, alpha, &a[0], &b[0])
		return
	}
	m.addOuterGo(alpha, a, b)
}

// conv3x3Add: Conv3x3Add has checked outH, outW >= 1 and the extents.
func conv3x3Add(out []float64, outH, outW int, x []float64, inW int, w []float64) {
	if useAVX2 {
		conv3x3AddAVX2(&out[0], outH, outW, &x[0], inW, &w[0])
		return
	}
	conv3x3AddGo(out, outW, x, inW, w)
}

// sgdStep: SGDStep has checked len(p) >= len(g) >= 1.
func sgdStep(p, g []float64, lr, scale, clip float64) {
	if useAVX2 {
		if !(clip > 0) {
			// No value is above +Inf or below -Inf, so the clipping
			// compares of the one assembly loop never fire.
			clip = math.Inf(1)
		}
		sgdStepAVX2(&p[0], &g[0], len(g), lr, scale, clip)
		return
	}
	sgdStepGo(p, g, lr, scale, clip)
}

// weightedMerge: WeightedMerge has checked len(v) == len(x) >= 1.
func weightedMerge(v []float64, w float64, x []float64) {
	if useAVX2 {
		weightedMergeAVX2(&v[0], &x[0], len(v), w)
		return
	}
	weightedMergeGo(v, w, x)
}

// mergeReply: MergeReply has checked len(v) == len(x) >= 1 and chosen the
// quarter length q, 0 <= 4*q <= len(v).
func mergeReply(v []float64, w float64, x []float64, q int) {
	if useAVX2 {
		mergeReplyAVX2(&v[0], &x[0], len(v), q, w)
		return
	}
	mergeReplyGo(v, w, x, q)
}

// mean4: MeanInto has checked that every model is as long as avg, >= 1.
func mean4(avg []float64, share float64, m0, m1, m2, m3 []float64, fresh bool) {
	if useAVX2 {
		mean4AVX2(&avg[0], &m0[0], &m1[0], &m2[0], &m3[0], len(avg), share, fresh)
		return
	}
	mean4Go(avg, share, m0, m1, m2, m3, fresh)
}

// allFinite: AllFinite has checked len(v) >= 1.
func allFinite(v []float64) bool {
	if useAVX2 {
		return allFiniteAVX2(&v[0], len(v))
	}
	return allFiniteGo(v)
}

// reluTo, reluGradTo and fill: the wrappers have checked that the lengths
// match and are >= 1.
func reluTo(dst, src []float64) {
	if useAVX2 {
		reluAVX2(&dst[0], &src[0], len(src))
		return
	}
	reluGo(dst, src)
}

func reluGradTo(dx, dy, out []float64) {
	if useAVX2 {
		reluGradAVX2(&dx[0], &dy[0], &out[0], len(out))
		return
	}
	reluGradGo(dx, dy, out)
}

func fill(a []float64, v float64) {
	if useAVX2 {
		fillAVX2(&a[0], len(a), v)
		return
	}
	fillGo(a, v)
}

// maxPool2x2: MaxPool2x2 has checked rows >= 1, an even inW >= 2 and every
// extent. The assembly needs rows of at least four windows, because it
// takes a row's last outW%4 windows by re-running the row's last four.
func maxPool2x2(out []float64, arg []int, x []float64, rows, inW int) {
	if useAVX2 && inW >= 8 {
		maxPool2x2AVX2(&out[0], &arg[0], &x[0], rows, inW)
		return
	}
	maxPool2x2Go(out, arg, x, rows, inW)
}

// sigmoidTo, tanhTo and expShift: the wrappers have checked
// len(dst) == len(src); either may be empty.
func sigmoidTo(dst, src []float64) {
	i := 0
	if useAVX2 {
		i = byGroups(dst, src, sigmoidAVX2, sigmoidGo)
	}
	sigmoidGo(dst[i:], src[i:])
}

func tanhTo(dst, src []float64) {
	i := 0
	if useAVX2 {
		i = byGroups(dst, src, tanhAVX2, tanhGo)
	}
	tanhGo(dst[i:], src[i:])
}

func expShift(dst, src []float64, shift float64) {
	i := 0
	if useAVX2 {
		i = byGroups(dst, src,
			func(d, s *float64, n int) int { return expShiftAVX2(d, s, n, shift) },
			func(d, s []float64) { expShiftGo(d, s, shift) })
	}
	expShiftGo(dst[i:], src[i:], shift)
}

// byGroups runs an exp kernel over the whole groups of four of src, giving
// each group it stops at to the scalar loop and resuming after it, and
// returns where the last len(src)%4 elements, which are the caller's,
// begin.
func byGroups(dst, src []float64, kernel func(dst, src *float64, n int) int, scalar func(dst, src []float64)) int {
	i, n := 0, len(src)&^3
	for i < n {
		if i += kernel(&dst[i], &src[i], n-i); i < n {
			scalar(dst[i:i+4], src[i:i+4])
			i += 4
		}
	}
	return i
}
