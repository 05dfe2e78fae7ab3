package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The exp sweeps (SigmoidTo, TanhTo, and SoftmaxTo's exponentials) against
// the scalar expressions they replaced, on both backends. Each element must
// get exactly the bits of its expression; the AVX2 backend hands every
// group of four with a lane off math.Exp's main path back to that
// expression, so the values that matter most are the ones at and around
// the edges of that path.

func refSigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// maxLog is math.tanh's MAXLOG, log(2**127): above half of it tanh is ±1.
const maxLog = 8.8029691931113054295988e+01

// expEdges: every value at which one of the three expressions changes
// branch, with both signs (the sigmoid negates its argument) and three
// ulps on either side — tanh's 0.625 and 0.5*MAXLOG; math.Exp's Overflow
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
// where math.Exp is finite and non-zero, and the gate pre-activations an
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
		{"TanhTo", TanhTo, math.Tanh},
		{"expShift(0)", func(d, s []float64) { expShift(d, s, 0) }, math.Exp},
		{"expShift(1.5)", func(d, s []float64) { expShift(d, s, 1.5) }, func(x float64) float64 { return math.Exp(x - 1.5) }},
		{"expShift(-700)", func(d, s []float64) { expShift(d, s, -700) }, func(x float64) float64 { return math.Exp(x + 700) }},
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
		e := math.Exp(v - maxv)
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
