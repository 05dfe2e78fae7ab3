package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Exp and Tanh against math's on amd64, and the exp sweeps (SigmoidTo,
// TanhTo, and SoftmaxTo's exponentials) against the scalar expressions
// they replaced, on both backends. Each element must get exactly the bits
// of its expression; the AVX2 backend hands every group of four with a
// lane off Exp's main path back to that expression, so the values that
// matter most are the ones at and around the edges of that path.

// archExpModel is math.Exp's amd64 assembly (archExp in
// $GOROOT/src/math/exp_amd64.s) on its FMA path and its main path,
// written out in Go with every rounding explicit, math.FMA for each
// VFNMADD231SD and VFMADD213SD. It is the test's own model, kept apart
// from Exp. ok is false where archExp leaves the main path (NaN, ±Inf,
// above Overflow, or a biased exponent k+1023 outside [1, 0x7FE]).
func archExpModel(x float64) (y float64, ok bool) {
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
	return float64(r * math.Float64frombits(uint64(k+1023)<<52)), true
}

// expPathInputs: arguments on which math.Exp's fused and unfused paths
// round differently, both signs, across the range of k. math.Exp takes
// the unfused one on a CPU without FMA or under GODEBUG=cpu.fma=off.
var expPathInputs = [...]float64{
	12.033678535466372, -4.982865025041585, 2.446857228056416, -1.020860113570441,
	18.418518183584666, -324.69931750226226, 187.49657416760664, 679.4707336289484,
}

// TestExpMatchesMath: Exp has the model's bits wherever archExp keeps to
// its main path and archExp's results at the special values; where this
// process's math.Exp runs its fused path (so everywhere but under
// GODEBUG=cpu.fma=off or on a CPU without FMA), Exp and Tanh also have
// math.Exp's and math.Tanh's bits. The arguments: 10^6 across [-746, 710],
// 10^5 in the band of denormal results, 10^5 where tanh takes each of its
// branches, the sweeps' edges and expPathInputs.
func TestExpMatchesMath(t *testing.T) {
	fused := true
	for _, x := range expPathInputs {
		if m, _ := archExpModel(x); math.Exp(x) != m {
			fused = false
		}
	}
	if !fused {
		t.Log("math.Exp runs its unfused path in this process: Exp is held to the model alone")
	}
	for _, c := range []struct{ x, want float64 }{
		{math.Inf(1), math.Inf(1)}, {math.Inf(-1), 0}, {math.MaxFloat64, math.Inf(1)}, {-math.MaxFloat64, 0},
		{0, 1}, {math.Copysign(0, -1), 1}, {709.782712893384, math.Inf(1)}, {-746, 0},
	} {
		if got := Exp(c.x); got != c.want {
			t.Errorf("Exp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if !math.IsNaN(Exp(math.NaN())) || !math.IsNaN(Tanh(math.NaN())) {
		t.Errorf("Exp(NaN) = %v, Tanh(NaN) = %v", Exp(math.NaN()), Tanh(math.NaN()))
	}
	check := func(x float64) {
		got := Exp(x)
		if m, ok := archExpModel(x); ok && math.Float64bits(got) != math.Float64bits(m) {
			t.Fatalf("Exp(%v) = %v (%#x), model %v (%#x)", x, got, math.Float64bits(got), m, math.Float64bits(m))
		}
		if !fused {
			return
		}
		if e := math.Exp(x); math.Float64bits(got) != math.Float64bits(e) {
			t.Fatalf("Exp(%v) = %v (%#x), math.Exp %v (%#x)", x, got, math.Float64bits(got), e, math.Float64bits(e))
		}
		if got, want := Tanh(x), math.Tanh(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Tanh(%v) = %v (%#x), math.Tanh %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, x := range append(expEdges(), expPathInputs[:]...) {
		check(x)
	}
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 1000000; i++ {
		check(-746 + 1456*rng.Float64())
	}
	for i := 0; i < 100000; i++ {
		check(-745.14 + (745.14-708.4)*rng.Float64())
		check(rng.NormFloat64() * 4)
	}
}

func refSigmoid(x float64) float64 { return 1 / (1 + Exp(-x)) }

// expEdges: every value at which one of the three expressions changes
// branch, with both signs (the sigmoid negates its argument) and three
// ulps on either side — tanh's 0.625 and 0.5*MAXLOG; Exp's Overflow
// (709.782712893384), the smallest normal result (-708.396…) and the
// smallest subnormal one (-745.133…); and the arguments where archExp's
// k = round(x*log2(e)) leaves [-1022, 1023] or falls below -1075 (its
// denormal and underflow exits) — then ±0, subnormals, ±MaxFloat64, ±Inf
// and NaNs of both signs.
func expEdges() []float64 {
	var v []float64
	for _, e := range []float64{0.625, 0.5 * maxLog, 709.782712893384, 708.3964185322641, 745.1332191019411,
		1022.5 * math.Ln2, 1023.5 * math.Ln2, 1075.5 * math.Ln2} {
		for _, x := range []float64{e, -e} {
			lo, hi := x, x
			for i := 0; i < 3; i++ {
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
				v = append(v, lo, hi)
			}
			v = append(v, x)
		}
	}
	return append(v, 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1050, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Copysign(math.NaN(), -1))
}

// expOperands fills v from a mix: the edges, random bit patterns (almost
// all far off the main path, and NaNs), arguments across the whole range
// where Exp is finite and non-zero, and the gate pre-activations an
// LSTM meets.
func expOperands(rng *rand.Rand, v []float64, edges []float64) {
	for i := range v {
		switch u := rng.Intn(10); {
		case u < 2:
			v[i] = edges[rng.Intn(len(edges))]
		case u < 3:
			v[i] = math.Float64frombits(rng.Uint64())
		case u < 5:
			v[i] = (2*rng.Float64() - 1) * 760
		default:
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
		}
	}
}

// TestExpSweepsMatchScalarBits: every length 0 to 70, operands drawn from
// expOperands, dst a separate buffer and dst == src; SigmoidTo, TanhTo
// and the softmax's exponentials (under several shifts) leave the scalar
// code's bits, a NaN exactly where it has one, and write nothing outside
// their operands.
func TestExpSweepsMatchScalarBits(t *testing.T) {
	edges := expEdges()
	sweeps := []struct {
		name string
		run  func(dst, src []float64)
		ref  func(x float64) float64
	}{
		{"SigmoidTo", SigmoidTo, refSigmoid},
		{"TanhTo", TanhTo, Tanh},
		{"expShift(0)", func(d, s []float64) { expShift(d, s, 0) }, Exp},
		{"expShift(1.5)", func(d, s []float64) { expShift(d, s, 1.5) }, func(x float64) float64 { return Exp(x - 1.5) }},
		{"expShift(-700)", func(d, s []float64) { expShift(d, s, -700) }, func(x float64) float64 { return Exp(x + 700) }},
	}
	for _, be := range backends {
		t.Run("backend="+be.name, func(t *testing.T) {
			be.use(t)
			rng := rand.New(rand.NewSource(27))
			for trial := 0; trial < 4000; trial++ {
				n := trial % 71
				src := guard("src", n)
				expOperands(rng, src.v, edges)
				for _, s := range sweeps {
					want := make([]float64, n)
					for i, x := range src.v {
						want[i] = s.ref(x)
					}
					what := fmt.Sprintf("%s n=%d", s.name, n)
					dst := guard("dst", n)
					s.run(dst.v, src.v)
					sameBits(t, what, dst.v, want)
					dst.intact(t)

					inPlace := guard("in place", n)
					copy(inPlace.v, src.v)
					s.run(inPlace.v, inPlace.v)
					sameBits(t, what+" in place", inPlace.v, want)
					inPlace.intact(t)
				}
				src.intact(t)
			}
		})
	}
}

// refSoftmax is SoftmaxTo as it stood with its exponentials inline.
func refSoftmax(dst, a []float64) {
	maxv := a[0]
	for _, v := range a[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range a {
		e := Exp(v - maxv)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// TestSoftmaxMatchesScalarBits: SoftmaxTo over logits a model produces,
// over vectors whose maximum is 0 and whose other elements sit at the exp
// edges below it (so v - max is exactly the edge), and over the wild
// operands; also in place.
func TestSoftmaxMatchesScalarBits(t *testing.T) {
	edges := expEdges()
	for _, be := range backends {
		t.Run("backend="+be.name, func(t *testing.T) {
			be.use(t)
			rng := rand.New(rand.NewSource(28))
			for trial := 0; trial < 3000; trial++ {
				n := 1 + trial%70
				a := guard("a", n)
				switch trial % 3 {
				case 0:
					for i := range a.v {
						a.v[i] = rng.NormFloat64() * 4
					}
				case 1:
					for i := range a.v {
						a.v[i] = -math.Abs(edges[rng.Intn(len(edges))])
					}
					a.v[rng.Intn(n)] = 0
				default:
					expOperands(rng, a.v, edges)
				}
				want := make([]float64, n)
				refSoftmax(want, a.v)
				got := guard("dst", n)
				SoftmaxTo(got.v, a.v)
				sameBits(t, fmt.Sprintf("SoftmaxTo n=%d", n), got.v, want)
				got.intact(t)
				SoftmaxTo(a.v, a.v)
				sameBits(t, fmt.Sprintf("SoftmaxTo n=%d in place", n), a.v, want)
				a.intact(t)
			}
		})
	}
}

// The exp sweeps at the char-LSTM's sizes (hidden 16, vocabulary 32), per
// backend:
//
//	go test -run '^$' -bench 'SigmoidTo|TanhTo|SoftmaxTo' ./internal/tensor
//
// SigmoidTo runs over 48 values (the i, f and o gates), TanhTo over 32
// (the g gate and tanh of the cell), SoftmaxTo over 32 logits.
func benchmarkExpSweep(b *testing.B, n int, sweep func(dst, src []float64)) {
	for _, be := range backends {
		b.Run(fmt.Sprintf("%d/backend=%s", n, be.name), func(b *testing.B) {
			be.use(b)
			rng := rand.New(rand.NewSource(1))
			src, dst := make([]float64, n), make([]float64, n)
			for i := range src {
				src[i] = rng.NormFloat64() * 2
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep(dst, src)
			}
		})
	}
}

func BenchmarkSigmoidTo(b *testing.B) { benchmarkExpSweep(b, 48, SigmoidTo) }
func BenchmarkTanhTo(b *testing.B)    { benchmarkExpSweep(b, 32, TanhTo) }
func BenchmarkSoftmaxTo(b *testing.B) { benchmarkExpSweep(b, 32, SoftmaxTo) }
