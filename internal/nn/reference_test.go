package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/spyker-fl/spyker/internal/tensor"
)

// The ref* functions are the layer kernels exactly as they stood before
// they were rewritten for speed. They define the ordering contract stated
// in the package comment: the production kernels must give every
// accumulator the same floating-point additions in the same order, and so
// the same bits. They live in a test file so the slow forms cannot be
// called by mistake.
//
// Conv2D.Forward, Dense and the Step methods reach internal/tensor's
// kernels, which have two backends (AVX2 assembly and portable Go loops).
// internal/tensor's own reference tests drive both backends in one run;
// from this package only the build can choose, so these tests hold the
// backend the CPU selects to the reference here and the portable one when
// CI runs them again with -tags purego.

func refConvForward(c *Conv2D, w, b, x, out []float64) {
	k := c.k
	for oc := 0; oc < c.outC; oc++ {
		bias := b[oc]
		wBase := oc * c.inC * k * k
		for oy := 0; oy < c.outH; oy++ {
			for ox := 0; ox < c.outW; ox++ {
				s := bias
				for ic := 0; ic < c.inC; ic++ {
					xBase := ic*c.inH*c.inW + oy*c.inW + ox
					wOff := wBase + ic*k*k
					for ky := 0; ky < k; ky++ {
						xRow := x[xBase+ky*c.inW : xBase+ky*c.inW+k]
						wRow := w[wOff+ky*k : wOff+ky*k+k]
						for kx := 0; kx < k; kx++ {
							s += xRow[kx] * wRow[kx]
						}
					}
				}
				out[oc*c.outH*c.outW+oy*c.outW+ox] = s
			}
		}
	}
}

func refConvBackward(c *Conv2D, w, lastX, dy, gw, gb, dx []float64) {
	k := c.k
	tensor.Zero(dx)
	for oc := 0; oc < c.outC; oc++ {
		wBase := oc * c.inC * k * k
		for oy := 0; oy < c.outH; oy++ {
			for ox := 0; ox < c.outW; ox++ {
				g := dy[oc*c.outH*c.outW+oy*c.outW+ox]
				if g == 0 {
					continue
				}
				gb[oc] += g
				for ic := 0; ic < c.inC; ic++ {
					xBase := ic*c.inH*c.inW + oy*c.inW + ox
					wOff := wBase + ic*k*k
					for ky := 0; ky < k; ky++ {
						xi := xBase + ky*c.inW
						wi := wOff + ky*k
						for kx := 0; kx < k; kx++ {
							gw[wi+kx] += g * lastX[xi+kx]
							dx[xi+kx] += g * w[wi+kx]
						}
					}
				}
			}
		}
	}
}

func refMaxPoolForward(p *MaxPool2D, x, out []float64, argmax []int) {
	for c := 0; c < p.ch; c++ {
		for oy := 0; oy < p.outH; oy++ {
			for ox := 0; ox < p.outW; ox++ {
				base := c*p.inH*p.inW + 2*oy*p.inW + 2*ox
				bestIdx := base
				best := x[base]
				for _, off := range [3]int{1, p.inW, p.inW + 1} {
					if v := x[base+off]; v > best {
						best = v
						bestIdx = base + off
					}
				}
				o := c*p.outH*p.outW + oy*p.outW + ox
				out[o] = best
				argmax[o] = bestIdx
			}
		}
	}
}

func refMaxPoolBackward(argmax []int, dy, dx []float64) {
	tensor.Zero(dx)
	for o, idx := range argmax {
		dx[idx] += dy[o]
	}
}

func refReLUForward(x, out []float64) {
	for i, v := range x {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

func refReLUBackward(out, dy, dx []float64) {
	for i, v := range out {
		if v > 0 {
			dx[i] = dy[i]
		} else {
			dx[i] = 0
		}
	}
}

func refMatVec(w []float64, rows, cols int, dst, x []float64) {
	for r := 0; r < rows; r++ {
		row := w[r*cols : (r+1)*cols]
		var s float64
		for c, wv := range row {
			s += wv * x[c]
		}
		dst[r] = s
	}
}

func refMatVecT(w []float64, rows, cols int, dst, x []float64) {
	tensor.Zero(dst)
	for r := 0; r < rows; r++ {
		row := w[r*cols : (r+1)*cols]
		xv := x[r]
		if xv == 0 {
			continue
		}
		for c, wv := range row {
			dst[c] += wv * xv
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

func refAddOuter(m []float64, rows, cols int, a, b []float64) {
	for r := 0; r < rows; r++ {
		av := 1 * a[r]
		if av == 0 {
			continue
		}
		row := m[r*cols : (r+1)*cols]
		for c := range row {
			row[c] += av * b[c]
		}
	}
}

func refSigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// refSeqLossAndGrad is CharLM.SeqLossAndGrad as it stood with per-unit gate
// loops — one sigmoid or tanh call per element — on working memory of its
// own. It accumulates into m's gradients.
func refSeqLossAndGrad(m *CharLM, seq []int) (loss float64, preds int) {
	T := len(seq) - 1
	if T < 1 {
		return 0, 0
	}
	h := m.hidden
	vec := func(n int) []float64 { return make([]float64, n) }
	type step struct{ x, i, f, g, o, c, tc, h, probs []float64 }
	steps := make([]step, T)
	for t := range steps {
		steps[t] = step{vec(m.embDim), vec(h), vec(h), vec(h), vec(h), vec(h), vec(h), vec(h), vec(m.vocab)}
	}
	zero := vec(h)
	hPrev, cPrev := zero, zero
	z, zh, logits := vec(4*h), vec(4*h), vec(m.vocab)

	for t := 0; t < T; t++ {
		st := &steps[t]
		copy(st.x, m.emb.Row(seq[t]))
		m.wx.MatVec(z, st.x)
		m.wh.MatVec(zh, hPrev)
		for j := range z {
			z[j] += zh[j] + m.bg[j]
		}
		for j := 0; j < h; j++ {
			st.i[j] = refSigmoid(z[j])
			st.f[j] = refSigmoid(z[h+j])
			st.g[j] = math.Tanh(z[2*h+j])
			st.o[j] = refSigmoid(z[3*h+j])
			st.c[j] = st.f[j]*cPrev[j] + st.i[j]*st.g[j]
			st.tc[j] = math.Tanh(st.c[j])
			st.h[j] = st.o[j] * st.tc[j]
		}
		m.wy.MatVec(logits, st.h)
		tensor.AddInPlace(logits, m.by)
		refSoftmax(st.probs, logits)
		loss += -math.Log(math.Max(st.probs[seq[t+1]], 1e-12))
		hPrev, cPrev = st.h, st.c
	}

	dh, dc, dz, dhRec, dLogits, dx := vec(h), vec(h), vec(4*h), vec(h), vec(m.vocab), vec(m.embDim)
	for t := T - 1; t >= 0; t-- {
		st := &steps[t]
		copy(dLogits, st.probs)
		dLogits[seq[t+1]] -= 1
		m.gWy.AddOuter(1, dLogits, st.h)
		tensor.AddInPlace(m.gBy, dLogits)
		m.wy.MatVecT(dhRec, dLogits)
		for j := 0; j < h; j++ {
			dh[j] += dhRec[j]
		}
		hp, cp := zero, zero
		if t > 0 {
			hp, cp = steps[t-1].h, steps[t-1].c
		}
		for j := 0; j < h; j++ {
			dcj := dc[j] + dh[j]*st.o[j]*(1-st.tc[j]*st.tc[j])
			doj := dh[j] * st.tc[j]
			dij := dcj * st.g[j]
			dfj := dcj * cp[j]
			dgj := dcj * st.i[j]
			dz[j] = dij * st.i[j] * (1 - st.i[j])
			dz[h+j] = dfj * st.f[j] * (1 - st.f[j])
			dz[2*h+j] = dgj * (1 - st.g[j]*st.g[j])
			dz[3*h+j] = doj * st.o[j] * (1 - st.o[j])
			dc[j] = dcj * st.f[j]
		}
		m.gWx.AddOuter(1, dz, st.x)
		m.gWh.AddOuter(1, dz, hp)
		tensor.AddInPlace(m.gBg, dz)
		m.wh.MatVecT(dh, dz)
		m.wx.MatVecT(dx, dz)
		tensor.AddInPlace(m.gEmb.Row(seq[t]), dx)
	}
	return loss, T
}

// refSeqLossWith is CharLM.SeqLossWith as it stood with its per-unit gate
// loop.
func refSeqLossWith(m *CharLM, seq []int) (loss float64, preds, correct int) {
	T := len(seq) - 1
	if T < 1 {
		return 0, 0, 0
	}
	h := m.hidden
	hPrev, cPrev, hCur, cCur := make([]float64, h), make([]float64, h), make([]float64, h), make([]float64, h)
	z, zh := make([]float64, 4*h), make([]float64, 4*h)
	logits, probs := make([]float64, m.vocab), make([]float64, m.vocab)
	for t := 0; t < T; t++ {
		m.wx.MatVec(z, m.emb.Row(seq[t]))
		m.wh.MatVec(zh, hPrev)
		for j := range z {
			z[j] += zh[j] + m.bg[j]
		}
		for j := 0; j < h; j++ {
			ig := refSigmoid(z[j])
			fg := refSigmoid(z[h+j])
			gg := math.Tanh(z[2*h+j])
			og := refSigmoid(z[3*h+j])
			cCur[j] = fg*cPrev[j] + ig*gg
			hCur[j] = og * math.Tanh(cCur[j])
		}
		m.wy.MatVec(logits, hCur)
		tensor.AddInPlace(logits, m.by)
		refSoftmax(probs, logits)
		loss += -math.Log(math.Max(probs[seq[t+1]], 1e-12))
		if tensor.ArgMax(probs) == seq[t+1] {
			correct++
		}
		hPrev, hCur = hCur, hPrev
		cPrev, cCur = cCur, cPrev
	}
	return loss, T, correct
}

// refSoftmax is tensor.SoftmaxTo with its exponentials inline.
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

// TestCharLMMatchesReferenceBits: SeqLossAndGrad's loss and every gradient
// block, accumulated over several windows, and SeqLossWith's loss,
// prediction and hit counts equal the per-unit loops' bit for bit — at the
// benchmark's shape (vocabulary 32, embedding 8, hidden 16), at an odd one
// (hidden 5, vocabulary 7: every sweep has a tail), and with gate biases
// that saturate the gates, drive |c| past math.tanh's 0.5*MAXLOG and send
// math.Exp off its main path (arguments beyond ±709), so the sweeps' hand
// back to the scalar code is exercised.
func TestCharLMMatchesReferenceBits(t *testing.T) {
	for trial, tc := range []struct {
		vocab, emb, hidden int
		saturate           bool
	}{{32, 8, 16, false}, {7, 3, 5, false}, {32, 8, 16, true}, {7, 3, 5, true}} {
		rng := rand.New(rand.NewSource(int64(40 + trial)))
		m := NewCharLM(tc.vocab, tc.emb, tc.hidden, rng)
		h := tc.hidden
		window := 30
		if tc.saturate {
			// Input and forget gates open, g at ±1 for each unit over the
			// whole window: |c| grows by about one per step.
			window = 80
			pick := func(p ...float64) float64 { return p[rng.Intn(len(p))] }
			for j := 0; j < h; j++ {
				m.bg[j] = pick(30, 800, 745.2, 709.9)
				m.bg[h+j] = 30
				m.bg[2*h+j] = pick(30, -30, 50, -50)
				m.bg[3*h+j] = pick(800, -800, 745.2, -745.2, 709.9, -709.9, 0)
			}
		}
		ref := NewCharLM(tc.vocab, tc.emb, tc.hidden, rng)
		ref.SetParams(m.Params())
		sc := m.NewSeqScratch()
		maxC := 0.0
		for w := 0; w < 5; w++ {
			seq := make([]int, 2+rng.Intn(window))
			for i := range seq {
				seq[i] = rng.Intn(tc.vocab)
			}
			what := fmt.Sprintf("CharLM(%d, %d, %d) saturate=%v window %d", tc.vocab, tc.emb, h, tc.saturate, w)
			loss, preds := m.SeqLossAndGrad(seq)
			wantLoss, wantPreds := refSeqLossAndGrad(ref, seq)
			if preds != wantPreds {
				t.Fatalf("%s: %d predictions, reference %d", what, preds, wantPreds)
			}
			sameBits(t, what+" loss", []float64{loss}, []float64{wantLoss})
			for b, blocks := range [][2][]float64{
				{m.gEmb.Data, ref.gEmb.Data}, {m.gWx.Data, ref.gWx.Data}, {m.gWh.Data, ref.gWh.Data},
				{m.gBg, ref.gBg}, {m.gWy.Data, ref.gWy.Data}, {m.gBy, ref.gBy},
			} {
				sameBits(t, fmt.Sprintf("%s gradient block %d", what, b), blocks[0], blocks[1])
			}
			for _, st := range m.steps[:len(seq)-1] {
				for _, c := range st.c {
					maxC = math.Max(maxC, math.Abs(c))
				}
			}

			loss, preds, correct := m.SeqLossWith(sc, seq)
			wantLoss, wantPreds, wantCorrect := refSeqLossWith(ref, seq)
			if preds != wantPreds || correct != wantCorrect {
				t.Fatalf("%s: SeqLossWith %d predictions %d correct, reference %d %d", what, preds, correct, wantPreds, wantCorrect)
			}
			sameBits(t, what+" SeqLossWith loss", []float64{loss}, []float64{wantLoss})
		}
		if tc.saturate && maxC <= 0.5*8.8029691931113054295988e+01 {
			t.Errorf("CharLM(%d, %d, %d): |c| peaked at %v, below the 44.01 where tanh leaves its exp branch", tc.vocab, tc.emb, h, maxC)
		}
	}
}

// awkward fills v with values chosen to expose any reordering or any
// dropped/added operation: normals across several magnitudes, exact zeros
// of both signs, and denormals. zeroShare is the probability of an exact
// zero (0 = none, 1 = all).
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

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

var zeroShares = []float64{0, 0.3, 0.9, 1}

// TestConvMatchesReferenceBits: outputs, input gradients and parameter
// gradients accumulated over several Backward calls (a mini-batch between
// two Steps) equal the reference loops bit for bit, over kernel sizes with
// and without the k = 3 fast path, one and several input channels, output
// widths 1 to 13 (every remainder of the k = 3 kernel's four-wide sweep),
// and upstream gradients that are dense, partly zero (what a ReLU hands
// back) and all zero.
func TestConvMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 156; trial++ {
		k := []int{1, 2, 3, 5}[trial%4]
		inC := []int{1, 3, 6}[(trial/4)%3]
		outC := 1 + rng.Intn(5)
		inH, inW := k+rng.Intn(7), k+(trial/12)%13
		c := NewConv2D(inC, inH, inW, outC, k, rng)
		awkward(rng, c.w, 0.1)
		awkward(rng, c.b, 0.2)

		refOut := make([]float64, len(c.outV))
		refDX := make([]float64, len(c.dx))
		refGW := make([]float64, len(c.gw))
		refGB := make([]float64, len(c.gb))
		x := make([]float64, inC*inH*inW)
		dy := make([]float64, len(c.outV))
		for call := 0; call < 4; call++ {
			zs := zeroShares[(trial+call)%4]
			awkward(rng, x, zs/2)
			awkward(rng, dy, zs)

			sameBits(t, "conv out", c.Forward(x), forwardRef(c, x, refOut))
			dx := c.Backward(dy)
			refConvBackward(c, c.w, x, dy, refGW, refGB, refDX)
			sameBits(t, "conv dx", dx, refDX)
			sameBits(t, "conv gw", c.gw, refGW)
			sameBits(t, "conv gb", c.gb, refGB)
		}
	}
}

func forwardRef(c *Conv2D, x, out []float64) []float64 {
	refConvForward(c, c.w, c.b, x, out)
	return out
}

// TestFirstLayerSkipsOnlyInputGradient: the parameter-only backward pass
// a Network runs on its first layer accumulates exactly the parameter
// gradients of the full pass.
func TestFirstLayerSkipsOnlyInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		k := []int{1, 2, 3, 5}[trial%4]
		inC := []int{1, 3, 6}[(trial/4)%3]
		c := NewConv2D(inC, k+rng.Intn(6), k+rng.Intn(6), 1+rng.Intn(4), k, rng)
		d := NewDense(1+rng.Intn(9), 1+rng.Intn(9), rng)
		refGW := make([]float64, len(c.gw))
		refGB := make([]float64, len(c.gb))
		refDX := make([]float64, len(c.dx))
		dGW := make([]float64, len(d.gw.Data))
		dGB := make([]float64, len(d.gb))
		x := make([]float64, len(c.lastX))
		dy := make([]float64, len(c.outV))
		dxIn := make([]float64, d.in)
		ddy := make([]float64, d.out)
		for call := 0; call < 3; call++ {
			awkward(rng, x, 0.1)
			awkward(rng, dy, zeroShares[(trial+call)%4])
			c.Forward(x)
			c.backwardParams(dy)
			refConvBackward(c, c.w, x, dy, refGW, refGB, refDX)
			sameBits(t, "conv gw", c.gw, refGW)
			sameBits(t, "conv gb", c.gb, refGB)

			awkward(rng, dxIn, 0.1)
			awkward(rng, ddy, zeroShares[(trial+call)%4])
			d.Forward(dxIn)
			d.backwardParams(ddy)
			refAddOuter(dGW, d.out, d.in, ddy, dxIn)
			tensor.AddInPlace(dGB, ddy)
			sameBits(t, "dense gw", d.gw.Data, dGW)
			sameBits(t, "dense gb", d.gb, dGB)
		}
	}
}

// TestMaxPoolMatchesReference: Forward's values and winner indices and
// Backward's input gradient equal the plain loops' (Backward's: a zeroed
// plane and one += per window) over two rounds on one layer, at random
// shapes, at the pools the models run — MNIST's 6x26x26 (13 windows a
// row), CIFAR's 8x8x8 and the live tests' 4x10x10 — and at every output
// width 1 to 9. Inputs have many ties (zeros of both signs), so the
// first-wins rule of the strict comparison is exercised; in every third
// trial they also have NaNs and infinities, and dy has -0 (the winner
// gets +0) and NaNs, quiet and signalling (the winner gets the quiet NaN
// with the same payload).
func TestMaxPoolMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := [][3]int{{6, 26, 26}, {8, 8, 8}, {4, 10, 10}}
	for outW := 1; outW <= 9; outW++ {
		shapes = append(shapes, [3]int{1 + outW%3, 2 * (1 + outW%4), 2 * outW})
	}
	oddNaN := math.Float64frombits(0xFFF00000DEAD0001)
	for trial := 0; trial < 60+len(shapes); trial++ {
		ch, inH, inW := 1+rng.Intn(4), 2*(1+rng.Intn(5)), 2*(1+rng.Intn(5))
		if trial >= 60 {
			ch, inH, inW = shapes[trial-60][0], shapes[trial-60][1], shapes[trial-60][2]
		}
		p := NewMaxPool2D(ch, inH, inW)
		x := make([]float64, ch*inH*inW)
		dy := make([]float64, len(p.outV))
		for round := 0; round < 2; round++ {
			awkward(rng, x, zeroShares[(trial+round)%4])
			awkward(rng, dy, 0.2)
			if (trial+round)%3 == 0 {
				for i := range x {
					if rng.Intn(8) == 0 {
						x[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN(), oddNaN}[rng.Intn(4)]
					}
				}
				for i := range dy {
					switch rng.Intn(6) {
					case 0:
						dy[i] = math.Copysign(0, -1)
					case 1:
						dy[i] = []float64{math.NaN(), oddNaN}[rng.Intn(2)]
					}
				}
			}
			what := fmt.Sprintf("pool %dx%dx%d round %d", ch, inH, inW, round)
			refOut := make([]float64, len(p.outV))
			refArg := make([]int, len(p.argmax))
			refMaxPoolForward(p, x, refOut, refArg)
			sameBits(t, what+" out", p.Forward(x), refOut)
			for i := range refArg {
				if p.argmax[i] != refArg[i] {
					t.Fatalf("%s: argmax[%d] = %d, reference %d", what, i, p.argmax[i], refArg[i])
				}
			}
			refDX := make([]float64, len(p.dx))
			refMaxPoolBackward(refArg, dy, refDX)
			sameBits(t, what+" dx", p.Backward(dy), refDX)
		}
	}
}

// TestReLUMatchesReferenceBits: Forward and Backward equal the branching
// loops at lengths 1 to 40 and at the MNIST CNN's first activation (4056)
// and the lengths after it (every residue mod 4 past the sweep's groups).
func TestReLUMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	long := []int{4056, 4057, 4058, 4059}
	for trial := 0; trial < 60+len(long); trial++ {
		n := 1 + rng.Intn(40)
		if trial >= 60 {
			n = long[trial-60]
		}
		r := NewReLU(n)
		x, dy := make([]float64, n), make([]float64, n)
		awkward(rng, x, zeroShares[trial%4])
		awkward(rng, dy, 0.2)
		if trial%3 == 0 {
			// The comparison v > 0 is false for NaN whatever its sign
			// bit, and true for +Inf.
			x[0] = math.NaN()
			x[n-1] = math.Inf(1)
			x[n/2] = math.Copysign(math.NaN(), -1)
			dy[n/2] = math.Inf(-1)
		}
		refOut, refDX := make([]float64, n), make([]float64, n)
		refReLUForward(x, refOut)
		refReLUBackward(refOut, dy, refDX)
		sameBits(t, "relu out", r.Forward(x), refOut)
		sameBits(t, "relu dx", r.Backward(dy), refDX)
	}
}

// denseShapes are (in, out) pairs the dense-layer test always covers: the
// matrices of the char-LSTM (64x8, 64x16, 32x16 as out x in) and of the
// MNIST CNN (32x150, 10x32), the degenerate ones, and sizes in every
// residue class mod 4 and mod 16 on both sides.
var denseShapes = [][2]int{
	{8, 64}, {16, 64}, {16, 32}, {150, 32}, {32, 10}, {1, 1}, {3, 5},
	{17, 17}, {18, 18}, {19, 19}, {35, 33}, {21, 34}, {22, 35}, {49, 20},
}

// TestDenseMatchesReferenceBits covers the dense layer end to end (bias
// add included) at the model shapes and with sizes that are not multiples
// of four.
func TestDenseMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 80+len(denseShapes); trial++ {
		in, out := 1+rng.Intn(21), 1+rng.Intn(13)
		if trial >= 80 {
			in, out = denseShapes[trial-80][0], denseShapes[trial-80][1]
		}
		d := NewDense(in, out, rng)
		awkward(rng, d.w.Data, 0.1)
		awkward(rng, d.b, 0.2)
		refGW := make([]float64, in*out)
		refGB := make([]float64, out)
		x, dy := make([]float64, in), make([]float64, out)
		refOut, refDX := make([]float64, out), make([]float64, in)
		for call := 0; call < 3; call++ {
			zs := zeroShares[(trial+call)%4]
			awkward(rng, x, zs/2)
			awkward(rng, dy, zs)

			refMatVec(d.w.Data, out, in, refOut, x)
			tensor.AddInPlace(refOut, d.b)
			sameBits(t, "dense out", d.Forward(x), refOut)

			refAddOuter(refGW, out, in, dy, x)
			tensor.AddInPlace(refGB, dy)
			refMatVecT(d.w.Data, out, in, refDX, dy)
			sameBits(t, "dense dx", d.Backward(dy), refDX)
			sameBits(t, "dense gw", d.gw.Data, refGW)
			sameBits(t, "dense gb", d.gb, refGB)
		}
	}
}

// TestStepMatchesReferenceBits: Network.Step and CharLM.Step apply the
// plain SGD loop bit for bit — parameter planes of 2 to 12 elements (every
// remainder of a four-wide sweep) and the 2400 of the benchmark's char-LSTM,
// gradients that scale to exactly +-clip, beyond it and to signed zeros,
// clipping on and off.
func TestStepMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	type stepper interface {
		Step(lr float64, n int, clip float64)
	}
	check := func(what string, m stepper, params, grads []float64, trial int) {
		t.Helper()
		clip := []float64{5, 0.25, 0, -1}[trial%4]
		batch := 1 + trial%3
		awkward(rng, params, 0.1)
		awkward(rng, grads, 0.2)
		for i := range grads {
			if rng.Intn(4) == 0 {
				grads[i] = math.Copysign(clip*float64(batch), rng.NormFloat64())
			}
		}
		wantP, wantG := append([]float64(nil), params...), append([]float64(nil), grads...)
		refSGDStep(wantP, wantG, 0.05, 1/float64(batch), clip)
		m.Step(0.05, batch, clip)
		sameBits(t, what+" params", params, wantP)
		sameBits(t, what+" grads", grads, wantG)
	}
	for trial := 0; trial < 48; trial++ {
		in, out := 1+trial%4, 1+(trial/4)%3 // in*out + out parameters: 2 to 15
		net := NewNetwork(NewDense(in, out, rng))
		check("Network.Step", net, net.backing, net.gradBacking, trial)
	}
	lm := NewCharLM(32, 8, 16, rng)
	if lm.NumParams() != 2400 {
		t.Fatalf("CharLM(32, 8, 16) has %d parameters, want the benchmark model's 2400", lm.NumParams())
	}
	for trial := 0; trial < 8; trial++ {
		check("CharLM.Step", lm, lm.backing, lm.gradBacking, trial)
	}
}

// TestReplicaForwardMatchesAndTracksParams: a forward-only replica aliases
// the parameter plane, so it computes the network's own logits bit for bit
// and follows a SetParams made after it was built.
func TestReplicaForwardMatchesAndTracksParams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	conv1 := NewConv2D(3, 12, 12, 6, 3, rng)
	conv2 := NewConv2D(6, 10, 10, 8, 3, rng)
	pool := NewMaxPool2D(8, 8, 8)
	net := NewNetwork(
		conv1, NewReLU(conv1.OutSize()),
		conv2, NewReLU(conv2.OutSize()), pool,
		NewDense(pool.OutSize(), 32, rng), NewReLU(32),
		NewDense(32, 10, rng),
	)
	rep := net.Replica()
	if rep == nil {
		t.Fatal("built-in layers must all be replicable")
	}
	x := randVec(rng, 3*12*12)
	for round := 0; round < 2; round++ {
		want := append([]float64(nil), net.Forward(x)...)
		sameBits(t, "replica logits", rep.Forward(x), want)
		p := net.Params()
		for i := range p {
			p[i] += 0.01 * rng.NormFloat64()
		}
		net.SetParams(p)
	}
	if NewNetwork(NewDense(4, 4, rng), foreignLayer{4}).Replica() != nil {
		t.Error("a network with a layer that cannot copy itself must not be replicable")
	}
}

// foreignLayer is a layer from outside the package: an identity with no
// replica method, so a network holding one has no forward-only copy.
type foreignLayer struct{ size int }

func (foreignLayer) Forward(x []float64) []float64   { return x }
func (foreignLayer) Backward(dy []float64) []float64 { return dy }
func (foreignLayer) ParamBlocks() [][]float64        { return nil }
func (foreignLayer) GradBlocks() [][]float64         { return nil }
func (f foreignLayer) OutSize() int                  { return f.size }
