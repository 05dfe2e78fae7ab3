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
