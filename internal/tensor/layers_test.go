package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The CNN's elementwise layer sweeps (ReLUTo, ReLUGradTo, MaxPool2x2, Fill)
// against the plainest loops that define them, on both backends. They
// compute nothing — every result is the bits of an operand or +0 — so the
// comparison is word for word, NaN payloads included.

func refReLU(dst, src []float64) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

func refReLUGrad(dx, dy, out []float64) {
	for i, v := range out {
		if math.Float64bits(v) != 0 {
			dx[i] = dy[i]
		} else {
			dx[i] = 0
		}
	}
}

func refMaxPool2x2(out []float64, arg []int, x []float64, rows, inW int) {
	outW := inW / 2
	for r := 0; r < rows; r++ {
		for ox := 0; ox < outW; ox++ {
			base := 2*r*inW + 2*ox
			best, bestIdx := x[base], base
			for _, off := range [3]int{1, inW, inW + 1} {
				if v := x[base+off]; v > best {
					best, bestIdx = v, base+off
				}
			}
			out[r*outW+ox], arg[r*outW+ox] = best, bestIdx
		}
	}
}

// sameWords demands bit-equal vectors, NaN payloads included.
func sameWords(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %#x, reference %#x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// layerEdges are the words a ReLU or a pool must not misjudge: both zeros,
// NaNs of both signs with and without payload, both infinities, the
// largest finite values, subnormals of both signs, and the words on either
// side of the NaN boundary the bit-pattern test draws.
var layerEdges = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Copysign(math.NaN(), -1),
	math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF0000000000001),
	math.Float64frombits(0x7FFFFFFFFFFFFFFF), math.Float64frombits(0xFFFFFFFFFFFFFFFF),
	math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060, -0x1p-1060, 1, -1,
}

// layerOperands fills v like sweepOperands and then, in about one element
// in four, puts one of layerEdges.
func layerOperands(rng *rand.Rand, v []float64) {
	sweepOperands(rng, v, true)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = layerEdges[rng.Intn(len(layerEdges))]
		}
	}
}

// TestReLUSweepsMatchReferenceBits: ReLUTo gives the v > 0 loop's words and
// ReLUGradTo the bit-pattern mask's, for every length of sweepLengths and
// the MNIST CNN's 4056 (6x26x26), into a separate operand and in place,
// and write nothing outside their operands.
func TestReLUSweepsMatchReferenceBits(t *testing.T) {
	for _, be := range backends {
		t.Run("backend="+be.name, func(t *testing.T) {
			be.use(t)
			rng := rand.New(rand.NewSource(29))
			for _, n := range append(sweepLengths(), 4053, 4054, 4055, 4056) {
				x, dy := guard("x", n), guard("dy", n)
				layerOperands(rng, x.v)
				layerOperands(rng, dy.v)
				what := fmt.Sprintf("n=%d", n)

				want := make([]float64, n)
				refReLU(want, x.v)
				out := guard("ReLUTo dst", n)
				ReLUTo(out.v, x.v)
				sameWords(t, "ReLUTo "+what, out.v, want)

				// The mask behind a ReLU's output, and on raw words: -0, NaNs
				// and negatives keep dy, only +0 clears it.
				for _, o := range [][]float64{out.v, x.v} {
					wantDX := make([]float64, n)
					refReLUGrad(wantDX, dy.v, o)
					dx := guard("ReLUGradTo dx", n)
					ReLUGradTo(dx.v, dy.v, o)
					sameWords(t, "ReLUGradTo "+what, dx.v, wantDX)
					dx.intact(t)

					inPlace := Clone(dy.v)
					ReLUGradTo(inPlace, inPlace, o)
					sameWords(t, "ReLUGradTo in place "+what, inPlace, wantDX)
				}

				ReLUTo(x.v, x.v)
				sameWords(t, "ReLUTo in place "+what, x.v, want)
				for _, g := range []guarded{x, dy, out} {
					g.intact(t)
				}
			}
		})
	}
}

// poolShapes are (rows, inW) pairs MaxPool2x2 is always driven over: the
// MNIST CNN's 6x26x26 (78 rows of 13 windows), CIFAR's 8x8x8 (32 of 4),
// the live tests' 4x10x10 (20 of 5) and one and several rows of every
// output width 1 to 13, so every residue mod 4 with and without a full
// group before it.
func poolShapes() [][2]int {
	s := [][2]int{{78, 26}, {32, 8}, {20, 10}}
	for outW := 1; outW <= 13; outW++ {
		s = append(s, [2]int{1, 2 * outW}, [2]int{3 + outW%3, 2 * outW})
	}
	return s
}

// TestMaxPool2x2MatchesReferenceBits: values and winner indices equal the
// strict-greater loop's, whose ties and NaNs keep the earliest candidate —
// on random words, on planes that are mostly zeros of both signs, on
// all-equal windows and on windows of nothing but edge words — for every
// shape of poolShapes, and nothing outside out and arg is written.
func TestMaxPool2x2MatchesReferenceBits(t *testing.T) {
	for _, be := range backends {
		t.Run("backend="+be.name, func(t *testing.T) {
			be.use(t)
			rng := rand.New(rand.NewSource(30))
			for _, s := range poolShapes() {
				rows, inW := s[0], s[1]
				n := rows * inW / 2
				for fillKind := 0; fillKind < 4; fillKind++ {
					x := guard("x", 2*rows*inW)
					switch fillKind {
					case 0:
						layerOperands(rng, x.v)
					case 1:
						awkward(rng, x.v, 0.9)
					case 2:
						// Every window holds one value four times, in its
						// bits or as the other zero.
						for i := range x.v {
							r, c := i/inW, i%inW
							v := layerEdges[((r/2)*inW/2+c/2)%len(layerEdges)]
							if v == 0 && rng.Intn(2) == 0 {
								v = -v
							}
							x.v[i] = v
						}
					case 3:
						for i := range x.v {
							x.v[i] = layerEdges[rng.Intn(len(layerEdges))]
						}
					}
					want, wantArg := make([]float64, n), make([]int, n)
					refMaxPool2x2(want, wantArg, x.v, rows, inW)

					out := guard("MaxPool2x2 out", n)
					argBuf := make([]int, n+2*guardPad)
					for i := range argBuf {
						argBuf[i] = -7
					}
					arg := argBuf[guardPad : guardPad+n : guardPad+n]
					MaxPool2x2(out.v, arg, x.v, rows, inW)
					what := fmt.Sprintf("MaxPool2x2 %d rows of %d, fill %d", rows, inW, fillKind)
					sameWords(t, what, out.v, want)
					for i := range arg {
						if arg[i] != wantArg[i] {
							t.Fatalf("%s: arg[%d] = %d, reference %d", what, i, arg[i], wantArg[i])
						}
					}
					for i, a := range argBuf {
						if (i < guardPad || i >= guardPad+n) && a != -7 {
							t.Fatalf("%s: wrote arg %d at offset %d", what, a, i-guardPad)
						}
					}
					out.intact(t)
					x.intact(t)
				}
			}
		})
	}
}

// TestFillMatchesReferenceBits: every element gets v's word — signed
// zeros, NaN payloads, infinities and subnormals included — for every
// length of sweepLengths and a 26x26 plane, and nothing else is written.
func TestFillMatchesReferenceBits(t *testing.T) {
	for _, be := range backends {
		t.Run("backend="+be.name, func(t *testing.T) {
			be.use(t)
			for _, n := range append(sweepLengths(), 676) {
				for _, v := range layerEdges {
					a := guard("Fill", n)
					Fill(a.v, v)
					want := make([]float64, n)
					for i := range want {
						want[i] = v
					}
					sameWords(t, fmt.Sprintf("Fill n=%d v=%#x", n, math.Float64bits(v)), a.v, want)
					a.intact(t)
				}
			}
		})
	}
}
