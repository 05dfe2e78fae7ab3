package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The protocol path's four sweeps (WeightedMerge, MergeReply, MeanInto,
// AllFinite) against the plainest loops that define them, on both
// backends. Each is element-wise, so the contract is simpler than the
// matrix kernels': every element receives exactly the loop's operations,
// each rounded on its own.

func refWeightedMerge(v []float64, w float64, x []float64) {
	for i := range v {
		v[i] += w * (x[i] - v[i])
	}
}

func refMergeReply(v []float64, w float64, x []float64) {
	for i := range v {
		v[i] += w * (x[i] - v[i])
		x[i] = v[i]
	}
}

// refMean is the average as Recorder first computed it: zero, then one
// AXPY per model.
func refMean(avg []float64, models [][]float64) {
	Zero(avg)
	share := 1 / float64(len(models))
	for _, m := range models {
		AXPY(share, avg, m)
	}
}

// sweepOperands fills v with what a merge can meet: awkward values, and
// in about one element in four an extreme — ±MaxFloat64 (so x - v
// overflows to ±Inf), a subnormal, a signed zero, and, when wild, ±Inf or a
// NaN of either sign.
func sweepOperands(rng *rand.Rand, v []float64, wild bool) {
	awkward(rng, v, 0.1)
	extremes := []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-0x1p-1060, math.Copysign(0, -1), 0}
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = extremes[rng.Intn(len(extremes))]
		}
	}
	if wild {
		nonFinite(rng, v)
	}
}

// sweepLengths: every length up to 70 (every remainder of every unrolled
// loop, quarters of 0 to 16 elements), and the lengths around the quarter
// split MergeReply shortens — quarters of 512 words (2048), 1024 words
// (4096, a whole number of pages) and 4096 words (16384, the benchmark
// models) — with a word on either side.
func sweepLengths() []int {
	var n []int
	for i := 0; i <= 70; i++ {
		n = append(n, i)
	}
	return append(n, 2047, 2048, 2049, 4095, 4096, 4097, 16383, 16384, 16385)
}

var sweepWeights = []float64{0, 1, 0.3, math.SmallestNonzeroFloat64}

// TestMergeSweepsMatchReferenceBits: WeightedMerge and MergeReply leave
// the reference loops' bits in v and (MergeReply) in x, a NaN exactly where
// the reference has one, for every length, weight and kind of operand, and
// write nothing outside their operands.
func TestMergeSweepsMatchReferenceBits(t *testing.T) {
	for _, be := range backends {
		t.Run("backend="+be.name, func(t *testing.T) {
			be.use(t)
			rng := rand.New(rand.NewSource(26))
			for _, n := range sweepLengths() {
				for wi, w := range sweepWeights {
					wild := (n+wi)%3 == 0
					v, x := guard("v", n), guard("x", n)
					sweepOperands(rng, v.v, wild)
					sweepOperands(rng, x.v, wild)
					what := fmt.Sprintf("n=%d w=%v", n, w)

					wantV := Clone(v.v)
					refWeightedMerge(wantV, w, x.v)
					gotV := guard("WeightedMerge v", n)
					copy(gotV.v, v.v)
					WeightedMerge(gotV.v, w, x.v)
					sameBits(t, "WeightedMerge "+what, gotV.v, wantV)

					wantX := Clone(x.v)
					copy(wantV, v.v)
					refMergeReply(wantV, w, wantX)
					MergeReply(v.v, w, x.v)
					sameBits(t, "MergeReply v "+what, v.v, wantV)
					sameBits(t, "MergeReply x "+what, x.v, wantX)

					for _, g := range []guarded{v, x, gotV} {
						g.intact(t)
					}
				}
			}
		})
	}
}

// TestMeanIntoMatchesReferenceBits: one to nine models (no full group, one,
// two, and every remainder), lengths around every unrolled loop, the same
// bits as Zero followed by one AXPY per model — the leading +0 included: a
// column of -0s averages to +0 — whatever avg held before.
func TestMeanIntoMatchesReferenceBits(t *testing.T) {
	for _, be := range backends {
		t.Run("backend="+be.name, func(t *testing.T) {
			be.use(t)
			rng := rand.New(rand.NewSource(27))
			for k := 1; k <= 9; k++ {
				for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 1001} {
					models := make([][]float64, k)
					guards := make([]guarded, k)
					for j := range models {
						guards[j] = guard(fmt.Sprintf("model %d", j), n)
						models[j] = guards[j].v
						sweepOperands(rng, models[j], (k+n)%3 == 0)
						if n > 0 {
							models[j][0] = math.Copysign(0, -1)
						}
					}
					avg := guard("avg", n)
					awkward(rng, avg.v, 0) // stale contents the mean must not read
					want := make([]float64, n)
					refMean(want, models)
					MeanInto(avg.v, models)
					sameBits(t, fmt.Sprintf("MeanInto k=%d n=%d", k, n), avg.v, want)
					if n > 0 && math.Signbit(avg.v[0]) {
						t.Fatalf("k=%d n=%d: the mean of -0s lost its leading +0", k, n)
					}
					avg.intact(t)
					for _, g := range guards {
						g.intact(t)
					}
				}
			}
		})
	}
}

// TestAllFiniteFindsEveryNonFinite: a NaN, +Inf or -Inf at any index of a
// short vector, and at the first, middle and last index of a model-sized
// one, is found; the largest finite words (exponent 0x7FE), subnormals and
// signed zeros are not mistaken for one.
func TestAllFiniteFindsEveryNonFinite(t *testing.T) {
	finite := []float64{math.MaxFloat64, -math.MaxFloat64, math.Float64frombits(0x7FEFFFFF00000000),
		math.Float64frombits(0x7FE0000000000001), math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0, 1.5}
	bad := []float64{math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7FF0000000000001),
		math.Inf(1), math.Inf(-1)}
	fill := func(v []float64) {
		for i := range v {
			v[i] = finite[i%len(finite)]
		}
	}
	for _, be := range backends {
		t.Run("backend="+be.name, func(t *testing.T) {
			be.use(t)
			if !AllFinite(nil) {
				t.Fatal("AllFinite(nil) = false")
			}
			check := func(n int, at []int) {
				v := make([]float64, n)
				fill(v)
				if !AllFinite(v) {
					t.Fatalf("n=%d: finite words refused", n)
				}
				for _, i := range at {
					for _, b := range bad {
						fill(v)
						v[i] = b
						if AllFinite(v) {
							t.Fatalf("n=%d: %#x at %d accepted", n, math.Float64bits(b), i)
						}
					}
				}
			}
			for n := 1; n <= 40; n++ {
				at := make([]int, n)
				for i := range at {
					at[i] = i
				}
				check(n, at)
			}
			check(16384, []int{0, 8192, 16383})
		})
	}
}

// TestSweepsAllocateNothing: none of the four wrappers allocates, on
// either backend, and neither do the exp sweeps, over groups the assembly
// takes and groups it hands back to the scalar code (-1000, -Inf), nor the
// layer sweeps at the MNIST CNN's shapes.
func TestSweepsAllocateNothing(t *testing.T) {
	const n = 16384
	v, x := make([]float64, n), make([]float64, n)
	models := [][]float64{x, x, x, x, x, x, x, x}
	e := make([]float64, 67)
	for i := range e {
		e[i] = float64(i%9) - 4
	}
	e[13], e[40] = -1000, math.Inf(-1)
	arg := make([]int, 1014)
	sweeps := map[string]func(){
		"ReLUTo":        func() { ReLUTo(v[:4056], x[:4056]) },
		"ReLUGradTo":    func() { ReLUGradTo(v[:4056], v[:4056], x[:4056]) },
		"MaxPool2x2":    func() { MaxPool2x2(v[:1014], arg, x[:4056], 78, 26) },
		"Fill":          func() { Fill(v[:676], 0.5) },
		"WeightedMerge": func() { WeightedMerge(v, 0.3, x) },
		"MergeReply":    func() { MergeReply(v, 0.3, x) },
		"MeanInto":      func() { MeanInto(v, models) },
		"AllFinite":     func() { AllFinite(v) },
		"SigmoidTo":     func() { SigmoidTo(v[:len(e)], e) },
		"TanhTo":        func() { TanhTo(v[:len(e)], e) },
		"SoftmaxTo":     func() { SoftmaxTo(v[:len(e)], e) },
	}
	for _, be := range backends {
		t.Run("backend="+be.name, func(t *testing.T) {
			be.use(t)
			for name, f := range sweeps {
				if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
					t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
				}
			}
		})
	}
}
