package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The ref* functions below are the kernels as the plainest loop writes
// them (for the matrix trio, exactly as they stood before they were first
// rewritten for speed: one serial accumulator chain per row, one load/store
// of dst per row). They are the definition of the ordering contract: both
// production backends — the Go loops of kernels.go and the AVX2 assembly —
// must produce the same bits, because every accumulator still sees the
// same additions in the same order. They live in a test file so the slow
// forms cannot be called by mistake.

func refMatVec(m *Matrix, dst, x []float64) {
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		var s float64
		for c, w := range row {
			s += w * x[c]
		}
		dst[r] = s
	}
}

func refMatVecT(m *Matrix, dst, x []float64) {
	Zero(dst)
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		xv := x[r]
		if xv == 0 {
			continue
		}
		for c, w := range row {
			dst[c] += w * xv
		}
	}
}

func refAddOuter(m *Matrix, alpha float64, a, b []float64) {
	for r := 0; r < m.Rows; r++ {
		av := alpha * a[r]
		if av == 0 {
			continue
		}
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c := range row {
			row[c] += av * b[c]
		}
	}
}

func refConv3x3Add(out []float64, outW int, x []float64, inW int, w []float64) {
	for oy := 0; oy < len(out)/outW; oy++ {
		for ox := 0; ox < outW; ox++ {
			s := out[oy*outW+ox]
			for ky := 0; ky < 3; ky++ {
				for kx := 0; kx < 3; kx++ {
					s += x[(oy+ky)*inW+ox+kx] * w[ky*3+kx]
				}
			}
			out[oy*outW+ox] = s
		}
	}
}

func refSGDStep(p, g []float64, lr, scale, clip float64) {
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

// awkward fills v with values chosen to expose any reordering or any
// dropped/added operation: ordinary normals across several magnitudes,
// exact zeros of both signs, and denormals. zeroShare is the probability
// of an exact zero (0 = none, 1 = all).
func awkward(rng *rand.Rand, v []float64, zeroShare float64) {
	for i := range v {
		switch u := rng.Float64(); {
		case u < zeroShare/2:
			v[i] = 0
		case u < zeroShare:
			v[i] = math.Copysign(0, -1)
		case u < zeroShare+0.05:
			v[i] = math.Copysign(math.SmallestNonzeroFloat64*float64(1+rng.Intn(1000)), rng.NormFloat64())
		default:
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
}

// nonFinite overwrites about one element in eight of v with +Inf, -Inf or
// a NaN of either sign: the operands for which "skip a zero" and "compare
// false" must not be confused.
func nonFinite(rng *rand.Rand, v []float64) {
	for i := range v {
		if rng.Intn(8) == 0 {
			v[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(math.NaN(), -1)}[rng.Intn(4)]
		}
	}
}

// sameBits demands bit-equal vectors, except that a NaN matches any NaN:
// which elements are NaN is part of the contract, the payload (which the
// hardware picks from the operands by rules of its own) is not.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// poison is what surrounds every operand of the reference tests. It is a
// NaN, so a kernel that reads it contaminates its result, and has a
// payload of its own, so a kernel that writes next to it is caught.
var poison = math.Float64frombits(0x7ff8dead0000beef)

// guarded is an operand placed inside a larger poisoned buffer at an odd
// element offset, so no kernel can rely on 32-byte alignment and every
// vector load and store it makes is an unaligned one.
type guarded struct {
	what   string
	buf, v []float64
}

const guardPad = 9

func guard(what string, n int) guarded {
	buf := make([]float64, n+2*guardPad)
	Fill(buf, poison)
	return guarded{what, buf, buf[guardPad : guardPad+n : guardPad+n]}
}

// intact fails the test if anything outside g.v was written.
func (g guarded) intact(t *testing.T) {
	t.Helper()
	for i, v := range g.buf {
		if (i < guardPad || i >= guardPad+len(g.v)) && math.Float64bits(v) != math.Float64bits(poison) {
			t.Fatalf("%s: wrote %v at offset %d of a %d-element operand", g.what, v, i-guardPad, len(g.v))
		}
	}
}

// kernelShapes are the matrix shapes every backend is driven over: the
// ones the models use (the char-LSTM's 64x8, 64x16 and 32x16, the MNIST
// CNN's 32x150 and 10x32), the degenerate ones, and rows and columns in
// every residue class mod 4 and mod 16 that a remainder loop can meet.
var kernelShapes = [][2]int{
	{64, 8}, {64, 16}, {32, 16}, {32, 150}, {10, 32}, {1, 1}, {5, 3},
	{4, 4}, {16, 16}, {17, 17}, {18, 18}, {19, 19}, {33, 35}, {34, 21}, {35, 22},
	{20, 49}, {37, 50}, {38, 51}, {39, 2}, {2, 39}, {3, 1}, {1, 67}, {48, 5},
}

// TestKernelsMatchReferenceBits drives both backends of the matrix trio
// and the reference loops over the fixed shapes above and random ones —
// row and column counts on both sides of every multiple of four, so full
// groups, tails and tail-only matrices all occur — and demands bit-equal
// results, including the skip-on-zero behaviour of MatVecT and AddOuter (a
// skipped row is not the same as adding a signed zero), with denormals
// throughout and, in every third trial, infinities and NaNs. Every operand
// sits in a poisoned buffer (see guarded) that must come back intact.
func TestKernelsMatchReferenceBits(t *testing.T) {
	for _, be := range backends {
		t.Run("backend="+be.name, func(t *testing.T) {
			be.use(t)
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 600; trial++ {
				rows, cols := 1+rng.Intn(19), 1+rng.Intn(23)
				if trial%4 == 0 {
					s := kernelShapes[(trial/4)%len(kernelShapes)]
					rows, cols = s[0], s[1]
				}
				zeroShare := []float64{0, 0.3, 0.9, 1}[trial%4]
				wild := trial%3 == 2

				gm := guard("matrix", rows*cols)
				m, ref := MatrixFrom(rows, cols, gm.v), NewMatrix(rows, cols)
				awkward(rng, m.Data, 0.1)
				if wild {
					nonFinite(rng, m.Data)
				}
				copy(ref.Data, m.Data)

				x, y := guard("x", cols), guard("y", rows)
				awkward(rng, x.v, zeroShare)
				awkward(rng, y.v, zeroShare)
				if wild {
					nonFinite(rng, x.v)
					nonFinite(rng, y.v)
				}
				got, want := guard("MatVec dst", rows), make([]float64, rows)
				m.MatVec(got.v, x.v)
				refMatVec(ref, want, x.v)
				sameBits(t, fmt.Sprintf("MatVec %dx%d", rows, cols), got.v, want)

				gotT, wantT := guard("MatVecT dst", cols), make([]float64, cols)
				Fill(gotT.v, 99) // MatVecT overwrites, it does not accumulate
				m.MatVecT(gotT.v, y.v)
				refMatVecT(ref, wantT, y.v)
				sameBits(t, fmt.Sprintf("MatVecT %dx%d", rows, cols), gotT.v, wantT)

				// Several accumulating calls, as a batch of Backward calls
				// makes between two Steps.
				for call := 0; call < 3; call++ {
					awkward(rng, y.v, zeroShare)
					awkward(rng, x.v, 0.2)
					if wild {
						nonFinite(rng, y.v)
					}
					alpha := []float64{1, -0.5, 0}[call]
					m.AddOuter(alpha, y.v, x.v)
					refAddOuter(ref, alpha, y.v, x.v)
				}
				sameBits(t, fmt.Sprintf("AddOuter %dx%d", rows, cols), m.Data, ref.Data)

				for _, g := range []guarded{gm, x, y, got, gotT} {
					g.intact(t)
				}
			}
		})
	}
}

// TestConv3x3AddMatchesReferenceBits: output widths 1 to 13 (every
// remainder of the four-wide sweep, with and without a full block before
// it), input rows both exactly outW+2 wide and wider, accumulating calls
// as Conv2D.Forward makes one per input channel.
func TestConv3x3AddMatchesReferenceBits(t *testing.T) {
	for _, be := range backends {
		t.Run("backend="+be.name, func(t *testing.T) {
			be.use(t)
			rng := rand.New(rand.NewSource(13))
			for trial := 0; trial < 390; trial++ {
				outW, outH := 1+trial%13, 1+rng.Intn(6)
				inW := outW + 2 + (trial/13)%3
				out, x, w := guard("out", outH*outW), guard("x", (outH+2)*inW), guard("w", 9)
				awkward(rng, out.v, 0.2)
				want := Clone(out.v)
				for call := 0; call < 3; call++ {
					awkward(rng, x.v, []float64{0, 0.3, 0.9, 1}[trial%4]/2)
					awkward(rng, w.v, 0.1)
					if trial%3 == 2 {
						nonFinite(rng, x.v)
						nonFinite(rng, w.v)
					}
					Conv3x3Add(out.v, outW, x.v, inW, w.v)
					refConv3x3Add(want, outW, x.v, inW, w.v)
				}
				sameBits(t, fmt.Sprintf("Conv3x3Add %dx%d of rows %d", outH, outW, inW), out.v, want)
				out.intact(t)
				x.intact(t)
				w.intact(t)
			}
		})
	}
}

// TestSGDStepMatchesReferenceBits: lengths 0 to 9 and a model-sized 2400,
// clipping on, off (0, negative) and NaN, scaled gradients exactly at, just
// inside and beyond +-clip, signed zeros, denormals, infinities and NaNs.
// The parameter slice may be longer than the gradient; its tail is left
// alone.
func TestSGDStepMatchesReferenceBits(t *testing.T) {
	for _, be := range backends {
		t.Run("backend="+be.name, func(t *testing.T) {
			be.use(t)
			rng := rand.New(rand.NewSource(14))
			lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2400}
			clips := []float64{5, 0.25, 0, -1, math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64}
			for trial := 0; trial < 440; trial++ {
				n := lengths[trial%len(lengths)]
				clip := clips[(trial/len(lengths))%len(clips)]
				scale := []float64{1, 0.1, 1.0 / 3}[trial%3]
				lr := []float64{0.05, 1, 0}[(trial/3)%3]
				p, g := guard("p", n+trial%2), guard("g", n)
				awkward(rng, p.v, 0.1)
				awkward(rng, g.v, 0.2)
				for i := range g.v {
					switch rng.Intn(6) {
					case 0: // lands exactly on a bound when scale is 1
						g.v[i] = math.Copysign(clip, rng.NormFloat64())
					case 1:
						g.v[i] = math.Nextafter(clip, rng.NormFloat64()*10)
					case 2:
						g.v[i] = -math.Nextafter(clip, rng.NormFloat64()*10)
					}
				}
				if trial%3 == 2 {
					nonFinite(rng, g.v)
					nonFinite(rng, p.v)
				}
				wantP, wantG := Clone(p.v), Clone(g.v)
				SGDStep(p.v, g.v, lr, scale, clip)
				refSGDStep(wantP, wantG, lr, scale, clip)
				sameBits(t, fmt.Sprintf("SGDStep p (n=%d clip=%v)", n, clip), p.v, wantP)
				sameBits(t, "SGDStep g", g.v, wantG)
				p.intact(t)
				g.intact(t)
			}
		})
	}
}

// TestKernelsRejectShortOperands: every length the loops relied on slicing
// to check is checked before either backend runs, so a hand-built Matrix
// with a short Data, a convolution or pool input that does not cover its
// output, or a parameter slice shorter than its gradient panics instead of
// letting assembly walk off the end.
func TestKernelsRejectShortOperands(t *testing.T) {
	short := &Matrix{Rows: 4, Cols: 4, Data: make([]float64, 15)}
	v4, v9 := make([]float64, 4), make([]float64, 9)
	cases := map[string]func(){
		"MatVec short Data":      func() { short.MatVec(v4, v4) },
		"MatVecT short Data":     func() { short.MatVecT(v4, v4) },
		"AddOuter short Data":    func() { short.AddOuter(1, v4, v4) },
		"AddOuter long Data":     func() { (&Matrix{Rows: 1, Cols: 4, Data: v9}).AddOuter(1, v4[:1], v4) },
		"MatVec dst":             func() { NewMatrix(4, 4).MatVec(v4[:3], v4) },
		"Conv3x3Add short x":     func() { Conv3x3Add(v4, 2, make([]float64, 15), 4, v9) },
		"Conv3x3Add narrow rows": func() { Conv3x3Add(v4, 2, make([]float64, 16), 3, v9) },
		"Conv3x3Add ragged out":  func() { Conv3x3Add(v4[:3], 2, make([]float64, 16), 4, v9) },
		"Conv3x3Add taps":        func() { Conv3x3Add(v4, 2, make([]float64, 16), 4, v9[:8]) },
		"Conv3x3Add outW":        func() { Conv3x3Add(v4, 0, make([]float64, 16), 4, v9) },
		"SGDStep short p":        func() { SGDStep(v4, v9, 0.1, 1, 0) },
		"WeightedMerge short x":  func() { WeightedMerge(v4, 0.5, v4[:3]) },
		"MergeReply long x":      func() { MergeReply(v4, 0.5, v9) },
		"MeanInto ragged models": func() { MeanInto(v4, [][]float64{v4, v4, v4, v9}) },
		"SigmoidTo long src":     func() { SigmoidTo(v4, v9) },
		"TanhTo short src":       func() { TanhTo(v9, v4) },
		"ReLUTo short dst":       func() { ReLUTo(v4, v9) },
		"ReLUGradTo short dy":    func() { ReLUGradTo(v4, v4[:3], v4) },
		"ReLUGradTo long out":    func() { ReLUGradTo(v4, v4, v9) },
		"MaxPool2x2 short x":     func() { MaxPool2x2(v4, make([]int, 4), make([]float64, 15), 2, 4) },
		"MaxPool2x2 short arg":   func() { MaxPool2x2(v4, make([]int, 3), make([]float64, 16), 2, 4) },
		"MaxPool2x2 ragged out":  func() { MaxPool2x2(v4[:3], make([]int, 3), make([]float64, 16), 2, 4) },
		"MaxPool2x2 odd inW":     func() { MaxPool2x2(v4, make([]int, 4), make([]float64, 20), 2, 5) },
		"MaxPool2x2 rows":        func() { MaxPool2x2(nil, nil, nil, -1, 4) },
	}
	for _, be := range backends {
		t.Run("backend="+be.name, func(t *testing.T) {
			be.use(t)
			for name, f := range cases {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: expected panic", name)
						}
					}()
					f()
				}()
			}
		})
	}
}

// TestKernelsOnEmptyOperands: zero rows, zero columns and empty slices are
// legal, do what the loops always did, and never reach assembly.
func TestKernelsOnEmptyOperands(t *testing.T) {
	for _, be := range backends {
		t.Run("backend="+be.name, func(t *testing.T) {
			be.use(t)
			dst := []float64{7, 7, 7}
			NewMatrix(3, 0).MatVec(dst, nil)
			sameBits(t, "MatVec over zero columns", dst, []float64{0, 0, 0})
			Fill(dst, 7)
			NewMatrix(0, 3).MatVecT(dst, nil)
			sameBits(t, "MatVecT over zero rows", dst, []float64{0, 0, 0})
			NewMatrix(0, 3).MatVec(nil, dst)
			NewMatrix(3, 0).MatVecT(nil, dst)
			NewMatrix(0, 3).AddOuter(1, nil, dst)
			NewMatrix(3, 0).AddOuter(1, dst, nil)
			Conv3x3Add(nil, 2, nil, 4, make([]float64, 9))
			SGDStep(dst, nil, 1, 1, 1)
			sameBits(t, "SGDStep with no gradient", dst, []float64{0, 0, 0})
			ReLUTo(nil, nil)
			ReLUGradTo(nil, nil, nil)
			MaxPool2x2(nil, nil, nil, 0, 8)
			MaxPool2x2(nil, nil, dst, 0, 2)
			Fill(nil, 1)
			Fill(dst[:0], 1)
		})
	}
}

// TestSoftmaxAtMatchesSoftmaxBits: picking one element without
// materializing the vector gives the bits SoftmaxTo gives.
func TestSoftmaxAtMatchesSoftmaxBits(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		a := make([]float64, 1+rng.Intn(40))
		awkward(rng, a, 0.1)
		want := make([]float64, len(a))
		SoftmaxTo(want, a)
		for i := range a {
			if got := SoftmaxAt(a, i); math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("SoftmaxAt(%v, %d) = %v, SoftmaxTo gives %v", a, i, got, want[i])
			}
		}
	}
}
