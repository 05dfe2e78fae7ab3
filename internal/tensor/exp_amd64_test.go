//go:build amd64 && !purego && !race

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestExpKernelIsArchExpFusedPath drives the assembly directly: on
// 200 000 arguments across the main path's whole range, and its edges, it
// returns the model's bits, and it stops exactly at the first group of
// four with a lane off the path.
func TestExpKernelIsArchExpFusedPath(t *testing.T) {
	if !hasAVX2FMA() {
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
			if _, ok := archExpModel(x); !ok {
				stop = i &^ 3
				break
			}
		}
		if got := expShiftAVX2(&dst[0], &src[0], len(src), 0); got != stop {
			t.Fatalf("kernel stopped after %d elements, want %d: %v", got, stop, src)
		}
		for i, x := range src[:stop] {
			if want, _ := archExpModel(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("exp(%v) = %v (%#x), model %v (%#x)", x, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
			}
		}
	}
}
