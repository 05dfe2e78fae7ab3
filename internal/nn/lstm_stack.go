package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/spyker-fl/spyker/internal/tensor"
)

// lstmLayer is one reusable LSTM layer operating on whole sequences. It
// caches its activations during forward so backward can run truncated
// BPTT; a layer instance is therefore not safe for concurrent use.
type lstmLayer struct {
	in, hidden int

	wx *tensor.Matrix // 4H x in, gate order i,f,g,o
	wh *tensor.Matrix // 4H x H
	bg []float64      // 4H

	gWx *tensor.Matrix
	gWh *tensor.Matrix
	gBg []float64

	// per-timestep caches, re-sliced per sequence
	xs, is, fs, gs, os, cs, tcs, hs [][]float64
}

// lstmParamCount is the flat parameter count of one LSTM layer.
func lstmParamCount(in, hidden int) int {
	return 4*hidden*in + 4*hidden*hidden + 4*hidden
}

// newLSTMLayer carves the layer's blocks out of the owning model's
// contiguous planes via cur, in paramBlocks order.
func newLSTMLayer(in, hidden int, rng *rand.Rand, cur *flatCursor) *lstmLayer {
	l := &lstmLayer{in: in, hidden: hidden}
	p, g := cur.claim(4 * hidden * in)
	l.wx, l.gWx = tensor.MatrixFrom(4*hidden, in, p), tensor.MatrixFrom(4*hidden, in, g)
	p, g = cur.claim(4 * hidden * hidden)
	l.wh, l.gWh = tensor.MatrixFrom(4*hidden, hidden, p), tensor.MatrixFrom(4*hidden, hidden, g)
	l.bg, l.gBg = cur.claim(4 * hidden)
	l.wx.XavierInit(rng, in, hidden)
	l.wh.XavierInit(rng, hidden, hidden)
	for i := hidden; i < 2*hidden; i++ {
		l.bg[i] = 1 // forget-gate bias open
	}
	return l
}

func (l *lstmLayer) paramBlocks() [][]float64 {
	return [][]float64{l.wx.Data, l.wh.Data, l.bg}
}

func (l *lstmLayer) gradBlocks() [][]float64 {
	return [][]float64{l.gWx.Data, l.gWh.Data, l.gBg}
}

func (l *lstmLayer) ensure(T int) {
	grow := func(buf *[][]float64, dim int) {
		for len(*buf) < T {
			*buf = append(*buf, make([]float64, dim))
		}
	}
	grow(&l.xs, l.in)
	h := l.hidden
	for _, buf := range []*[][]float64{&l.is, &l.fs, &l.gs, &l.os, &l.cs, &l.tcs, &l.hs} {
		grow(buf, h)
	}
}

// forward consumes the input sequence and returns the hidden-state
// sequence (aliased caches, valid until the next forward call).
func (l *lstmLayer) forward(xs [][]float64) [][]float64 {
	T := len(xs)
	l.ensure(T)
	h := l.hidden
	hPrev := make([]float64, h)
	cPrev := make([]float64, h)
	z := make([]float64, 4*h)
	zh := make([]float64, 4*h)
	for t := 0; t < T; t++ {
		copy(l.xs[t], xs[t])
		l.wx.MatVec(z, xs[t])
		l.wh.MatVec(zh, hPrev)
		for j := range z {
			z[j] += zh[j] + l.bg[j]
		}
		for j := 0; j < h; j++ {
			l.is[t][j] = sigmoid(z[j])
			l.fs[t][j] = sigmoid(z[h+j])
			l.gs[t][j] = tanh(z[2*h+j])
			l.os[t][j] = sigmoid(z[3*h+j])
			l.cs[t][j] = l.fs[t][j]*cPrev[j] + l.is[t][j]*l.gs[t][j]
			l.tcs[t][j] = tanh(l.cs[t][j])
			l.hs[t][j] = l.os[t][j] * l.tcs[t][j]
		}
		hPrev, cPrev = l.hs[t], l.cs[t]
	}
	return l.hs[:T]
}

// backward takes dL/dh per timestep, accumulates parameter gradients, and
// returns dL/dx per timestep.
func (l *lstmLayer) backward(dhs [][]float64) [][]float64 {
	T := len(dhs)
	h := l.hidden
	dxs := make([][]float64, T)
	dh := make([]float64, h)
	dc := make([]float64, h)
	dz := make([]float64, 4*h)
	zero := make([]float64, h)
	for t := T - 1; t >= 0; t-- {
		for j := 0; j < h; j++ {
			dh[j] += dhs[t][j]
		}
		hp, cp := zero, zero
		if t > 0 {
			hp, cp = l.hs[t-1], l.cs[t-1]
		}
		for j := 0; j < h; j++ {
			dcj := dc[j] + dh[j]*l.os[t][j]*(1-l.tcs[t][j]*l.tcs[t][j])
			doj := dh[j] * l.tcs[t][j]
			dij := dcj * l.gs[t][j]
			dfj := dcj * cp[j]
			dgj := dcj * l.is[t][j]
			dz[j] = dij * l.is[t][j] * (1 - l.is[t][j])
			dz[h+j] = dfj * l.fs[t][j] * (1 - l.fs[t][j])
			dz[2*h+j] = dgj * (1 - l.gs[t][j]*l.gs[t][j])
			dz[3*h+j] = doj * l.os[t][j] * (1 - l.os[t][j])
			dc[j] = dcj * l.fs[t][j]
		}
		l.gWx.AddOuter(1, dz, l.xs[t])
		l.gWh.AddOuter(1, dz, hp)
		tensor.AddInPlace(l.gBg, dz)

		dx := make([]float64, l.in)
		l.wx.MatVecT(dx, dz)
		dxs[t] = dx
		l.wh.MatVecT(dh, dz)
	}
	return dxs
}

// StackedCharLM is a character LM with a configurable number of LSTM
// layers between the embedding and the output projection — the deeper
// variant of CharLM for tasks where one recurrent layer underfits.
type StackedCharLM struct {
	vocab, embDim, hidden int

	// backing/gradBacking are the contiguous parameter and gradient
	// planes all blocks below alias, in paramBlocks order.
	backing     []float64
	gradBacking []float64

	emb    *tensor.Matrix
	layers []*lstmLayer
	wy     *tensor.Matrix
	by     []float64

	gEmb *tensor.Matrix
	gWy  *tensor.Matrix
	gBy  []float64
}

// NewStackedCharLM builds a character LM with the given number of LSTM
// layers (>= 1).
func NewStackedCharLM(vocab, embDim, hidden, numLayers int, rng *rand.Rand) *StackedCharLM {
	if numLayers < 1 {
		panic(fmt.Sprintf("nn: StackedCharLM with %d layers", numLayers))
	}
	total := vocab*embDim + vocab*hidden + vocab
	in := embDim
	for i := 0; i < numLayers; i++ {
		total += lstmParamCount(in, hidden)
		in = hidden
	}
	m := &StackedCharLM{
		vocab: vocab, embDim: embDim, hidden: hidden,
		backing:     make([]float64, total),
		gradBacking: make([]float64, total),
	}
	// Carve blocks out of the planes in paramBlocks order: embedding,
	// then each LSTM layer, then the output projection.
	cur := &flatCursor{params: m.backing, grads: m.gradBacking}
	p, g := cur.claim(vocab * embDim)
	m.emb, m.gEmb = tensor.MatrixFrom(vocab, embDim, p), tensor.MatrixFrom(vocab, embDim, g)
	in = embDim
	for i := 0; i < numLayers; i++ {
		m.layers = append(m.layers, newLSTMLayer(in, hidden, rng, cur))
		in = hidden
	}
	p, g = cur.claim(vocab * hidden)
	m.wy, m.gWy = tensor.MatrixFrom(vocab, hidden, p), tensor.MatrixFrom(vocab, hidden, g)
	m.by, m.gBy = cur.claim(vocab)
	cur.done()
	m.emb.XavierInit(rng, vocab, embDim)
	m.wy.XavierInit(rng, hidden, vocab)
	return m
}

func (m *StackedCharLM) paramBlocks() [][]float64 {
	blocks := [][]float64{m.emb.Data}
	for _, l := range m.layers {
		blocks = append(blocks, l.paramBlocks()...)
	}
	return append(blocks, m.wy.Data, m.by)
}

func (m *StackedCharLM) gradBlocks() [][]float64 {
	blocks := [][]float64{m.gEmb.Data}
	for _, l := range m.layers {
		blocks = append(blocks, l.gradBlocks()...)
	}
	return append(blocks, m.gWy.Data, m.gBy)
}

// NumParams returns the total trainable parameter count.
func (m *StackedCharLM) NumParams() int { return flattenLen(m.paramBlocks()) }

// Params returns a copy of all parameters as one flat vector.
func (m *StackedCharLM) Params() []float64 {
	out := make([]float64, len(m.backing))
	copy(out, m.backing)
	return out
}

// ParamsView returns the live flat parameter vector — a zero-copy
// read-only borrow of the contiguous backing plane.
func (m *StackedCharLM) ParamsView() []float64 { return m.backing }

// SetParams loads a flat parameter vector produced by Params.
func (m *StackedCharLM) SetParams(p []float64) {
	if len(p) != len(m.backing) {
		panic(fmt.Sprintf("nn: StackedCharLM.SetParams length %d != %d", len(p), len(m.backing)))
	}
	copy(m.backing, p)
}

// Grads returns a copy of the accumulated gradients, flattened like
// Params.
func (m *StackedCharLM) Grads() []float64 {
	out := make([]float64, len(m.gradBacking))
	copy(out, m.gradBacking)
	return out
}

// NumLayers reports the LSTM stack depth.
func (m *StackedCharLM) NumLayers() int { return len(m.layers) }

// SeqLossAndGrad runs truncated BPTT over seq, accumulating gradients,
// and returns the total cross-entropy and the number of predictions.
func (m *StackedCharLM) SeqLossAndGrad(seq []int) (loss float64, preds int) {
	T := len(seq) - 1
	if T < 1 {
		return 0, 0
	}
	// Embedding lookups.
	xs := make([][]float64, T)
	for t := 0; t < T; t++ {
		xs[t] = m.emb.Row(seq[t])
	}
	// LSTM stack.
	hs := xs
	for _, l := range m.layers {
		hs = l.forward(hs)
	}
	// Output layer + loss, collecting dL/dh for the top layer.
	logits := make([]float64, m.vocab)
	probs := make([]float64, m.vocab)
	dLogits := make([]float64, m.vocab)
	dhs := make([][]float64, T)
	for t := 0; t < T; t++ {
		m.wy.MatVec(logits, hs[t])
		tensor.AddInPlace(logits, m.by)
		tensor.SoftmaxTo(probs, logits)
		loss += -math.Log(math.Max(probs[seq[t+1]], 1e-12))
		copy(dLogits, probs)
		dLogits[seq[t+1]] -= 1
		m.gWy.AddOuter(1, dLogits, hs[t])
		tensor.AddInPlace(m.gBy, dLogits)
		dh := make([]float64, m.hidden)
		m.wy.MatVecT(dh, dLogits)
		dhs[t] = dh
	}
	// Backward through the stack.
	for li := len(m.layers) - 1; li >= 0; li-- {
		dhs = m.layers[li].backward(dhs)
	}
	// Embedding gradients.
	for t := 0; t < T; t++ {
		tensor.AddInPlace(m.gEmb.Row(seq[t]), dhs[t])
	}
	return loss, T
}

// SeqLoss evaluates seq without touching gradients, returning summed
// cross-entropy, prediction count and correct argmax predictions.
func (m *StackedCharLM) SeqLoss(seq []int) (loss float64, preds, correct int) {
	T := len(seq) - 1
	if T < 1 {
		return 0, 0, 0
	}
	xs := make([][]float64, T)
	for t := 0; t < T; t++ {
		xs[t] = m.emb.Row(seq[t])
	}
	hs := xs
	for _, l := range m.layers {
		hs = l.forward(hs)
	}
	logits := make([]float64, m.vocab)
	probs := make([]float64, m.vocab)
	for t := 0; t < T; t++ {
		m.wy.MatVec(logits, hs[t])
		tensor.AddInPlace(logits, m.by)
		tensor.SoftmaxTo(probs, logits)
		loss += -math.Log(math.Max(probs[seq[t+1]], 1e-12))
		if tensor.ArgMax(probs) == seq[t+1] {
			correct++
		}
	}
	return loss, T, correct
}

// Step applies accumulated gradients with SGD, scaled by 1/count and
// clipped per coordinate (clip <= 0 disables), then zeroes them.
func (m *StackedCharLM) Step(lr float64, count int, clip float64) {
	if count <= 0 {
		panic("nn: StackedCharLM.Step with non-positive count")
	}
	scale := 1 / float64(count)
	tensor.SGDStep(m.backing, m.gradBacking, lr, scale, clip)
}
