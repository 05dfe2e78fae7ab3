//go:build !amd64 || purego

package tensor

// Off amd64, and under -tags purego, the portable loops of kernels.go are
// the only backend.

func (m *Matrix) matVec(dst, x []float64)                { m.matVecGo(dst, x) }
func (m *Matrix) matVecT(dst, x []float64)               { m.matVecTGo(dst, x) }
func (m *Matrix) addOuter(alpha float64, a, b []float64) { m.addOuterGo(alpha, a, b) }

func conv3x3Add(out []float64, outH, outW int, x []float64, inW int, w []float64) {
	conv3x3AddGo(out, outW, x, inW, w)
}

func sgdStep(p, g []float64, lr, scale, clip float64) { sgdStepGo(p, g, lr, scale, clip) }

func weightedMerge(v []float64, w float64, x []float64)     { weightedMergeGo(v, w, x) }
func mergeReply(v []float64, w float64, x []float64, q int) { mergeReplyGo(v, w, x, q) }
func allFinite(v []float64) bool                            { return allFiniteGo(v) }

func mean4(avg []float64, share float64, m0, m1, m2, m3 []float64, fresh bool) {
	mean4Go(avg, share, m0, m1, m2, m3, fresh)
}

func reluTo(dst, src []float64)        { reluGo(dst, src) }
func reluGradTo(dx, dy, out []float64) { reluGradGo(dx, dy, out) }
func fill(a []float64, v float64)      { fillGo(a, v) }

func maxPool2x2(out []float64, arg []int, x []float64, rows, inW int) {
	maxPool2x2Go(out, arg, x, rows, inW)
}

func sigmoidTo(dst, src []float64)               { sigmoidGo(dst, src) }
func tanhTo(dst, src []float64)                  { tanhGo(dst, src) }
func expShift(dst, src []float64, shift float64) { expShiftGo(dst, src, shift) }
