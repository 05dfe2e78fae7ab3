//go:build amd64 && !purego

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// archExpModel is math.Exp's amd64 assembly (archExp in
// $GOROOT/src/math/exp_amd64.s) on its main path, written out in Go with
// every rounding explicit: fused selects its FMA path (math.FMA for each
// VFNMADD231SD and VFMADD213SD), otherwise its MULSD/ADDSD path. ok is
// false where archExp leaves the main path (NaN, ±Inf, above Overflow, or
// a biased exponent k+1023 outside [1, 0x7FE]).
func archExpModel(x float64, fused bool) (y float64, ok bool) {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2u     = 0.69314718055966295651160180568695068359375
		ln2l     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	// exprodata<>'s Taylor coefficients, in the order archExp folds them.
	taylor := [...]float64{1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0}
	if math.IsNaN(x) || math.IsInf(x, 0) || x > overflow {
		return 0, false
	}
	t := float64(log2e * x)
	if !(t > math.MinInt32-0.5 && t < math.MaxInt32+0.5) { // CVTSD2SL would give 0x80000000
		return 0, false
	}
	k := int32(math.RoundToEven(t))
	if k < -1022 || k > 1023 {
		return 0, false
	}
	kf := float64(k)
	r, p := x, 2.4801587301587301587e-5
	if fused {
		r = math.FMA(-kf, ln2u, r)
		r = math.FMA(-kf, ln2l, r)
		r = float64(r * 0.0625)
		for _, c := range taylor {
			p = math.FMA(p, r, c)
		}
		r = float64(r * p)
		for i := 0; i < 3; i++ {
			r = float64(r * float64(r+2))
		}
		r = math.FMA(float64(r+2), r, 1)
	} else {
		r = float64(r - float64(ln2u*kf))
		r = float64(r - float64(ln2l*kf))
		r = float64(r * 0.0625)
		for _, c := range taylor {
			p = float64(float64(p*r) + c)
		}
		r = float64(r * p)
		for i := 0; i < 4; i++ {
			r = float64(r * float64(2+r))
		}
		r = float64(r + 1)
	}
	return float64(r * math.Float64frombits(uint64(k+1023)<<52)), true
}

// TestExpProbeSeparatesPaths: every input of expProbe is on archExp's main
// path, the two paths give it different bits, and math.Exp gives it the
// bits of one of them — so the probe finds the kernels, which copy the
// fused path, equal to math.Exp exactly when math.Exp runs that path.
func TestExpProbeSeparatesPaths(t *testing.T) {
	for _, x := range expProbe {
		f, ok := archExpModel(x, true)
		u, _ := archExpModel(x, false)
		switch e := math.Exp(x); {
		case !ok:
			t.Errorf("probe %v is off archExp's main path", x)
		case f == u:
			t.Errorf("probe %v: both paths give %v", x, f)
		case e != f && e != u:
			t.Errorf("probe %v: math.Exp gives %v, the fused path %v, the unfused %v", x, e, f, u)
		}
	}
}

// TestExpDispatchFollowsMath: the exp kernels are on exactly when the CPU
// can run them and math.Exp takes its fused path in this process, which
// GODEBUG=cpu.fma=off turns off (CI runs the package both ways).
func TestExpDispatchFollowsMath(t *testing.T) {
	mathFused := true
	for _, x := range expProbe {
		if f, _ := archExpModel(x, true); math.Exp(x) != f {
			mathFused = false
		}
	}
	avx2, fma := cpuFeatures()
	if want := avx2 && fma && mathFused; expFused != want {
		t.Fatalf("expFused = %v; AVX2 %v, FMA %v, math.Exp on the fused path %v", expFused, avx2, fma, mathFused)
	}
}

// TestExpKernelIsArchExpFusedPath drives the assembly directly, whatever
// path math.Exp has taken: on 200 000 arguments across the main path's
// whole range, and its edges, it returns the fused model's bits, and it
// stops exactly at the first group of four with a lane off the path.
func TestExpKernelIsArchExpFusedPath(t *testing.T) {
	if avx2, fma := cpuFeatures(); !avx2 || !fma {
		t.Skip("this CPU lacks AVX2 or FMA: the exp kernels cannot run")
	}
	rng := rand.New(rand.NewSource(29))
	edges := expEdges()
	src, dst := make([]float64, 64), make([]float64, 64)
	for trial := 0; trial < 200000/len(src); trial++ {
		for i := range src {
			switch rng.Intn(8) {
			case 0:
				src[i] = edges[rng.Intn(len(edges))]
			case 1, 2:
				src[i] = (2*rng.Float64() - 1) * 746
			default:
				src[i] = rng.NormFloat64() * 20
			}
		}
		stop := len(src)
		for i, x := range src {
			if _, ok := archExpModel(x, true); !ok {
				stop = i &^ 3
				break
			}
		}
		if got := expShiftAVX2(&dst[0], &src[0], len(src), 0); got != stop {
			t.Fatalf("kernel stopped after %d elements, want %d: %v", got, stop, src)
		}
		for i, x := range src[:stop] {
			if want, _ := archExpModel(x, true); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("exp(%v) = %v (%#x), fused path %v (%#x)", x, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
			}
		}
	}
}
