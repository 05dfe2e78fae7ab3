package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/spyker-fl/spyker/internal/tensor"
)

// CharLM is a character-level language model: an embedding layer, a single
// LSTM layer, and a dense projection back to the vocabulary, matching the
// WikiText-2 model described in the paper (embedding -> LSTM -> fully
// connected over the character vocabulary). It trains with truncated
// backpropagation through time over fixed-length windows. At rest it holds
// only its parameters: SeqLossAndGrad borrows the rest (lmTrain) and Step
// gives it back.
type CharLM struct {
	lmShape

	// backing is the contiguous parameter plane all blocks below alias, in
	// declaration order.
	backing []float64

	emb *tensor.Matrix // vocab x embDim
	wx  *tensor.Matrix // 4H x embDim, gate order i,f,g,o
	wh  *tensor.Matrix // 4H x H
	bg  []float64      // 4H
	wy  *tensor.Matrix // vocab x H
	by  []float64

	scratch *trainList // the free list of the model's lmShape
	train   *lmTrain   // borrowed by SeqLossAndGrad, given back by Step; nil at rest
}

type lmShape struct{ vocab, embDim, hidden int }

// lmTrain is what a CharLM needs only while it trains: gradients carved as
// the parameters are, step caches (grown to the longest window seen) and
// BPTT working memory. A window writes what it reads first, nothing writes
// the zero vector, and Step leaves the gradients +0: no bit depends on its
// last user.
type lmTrain struct {
	grad                []float64
	gEmb, gWx, gWh, gWy *tensor.Matrix
	gBg, gBy            []float64

	steps []lstmStep

	zero            []float64 // H zeros: h and c before the first step (read only)
	z, zh, dz       []float64 // 4H
	dh, dc, dhRec   []float64 // H
	logits, dLogits []float64 // vocab
	dx              []float64 // embDim
}

// borrow returns m's training scratch, taking one from its free list at
// rest.
func (m *CharLM) borrow() *lmTrain {
	if m.train != nil {
		return m.train
	}
	m.train, _ = m.scratch.take().(*lmTrain)
	if m.train == nil {
		f := func(n int) []float64 { return make([]float64, n) }
		h := m.hidden
		t := &lmTrain{
			grad: f(len(m.backing)),
			zero: f(h), z: f(4 * h), zh: f(4 * h), dz: f(4 * h),
			dh: f(h), dc: f(h), dhRec: f(h),
			logits: f(m.vocab), dLogits: f(m.vocab), dx: f(m.embDim),
		}
		t.gEmb, t.gWx, t.gWh, t.gBg, t.gWy, t.gBy = m.carve(t.grad)
		m.train = t
	}
	return m.train
}

// carve cuts a parameter-sized plane into the six blocks, in the order
// CharLM declares them: that order is the flat layout of Params().
func (s lmShape) carve(plane []float64) (emb, wx, wh *tensor.Matrix, bg []float64, wy *tensor.Matrix, by []float64) {
	v, e, h := s.vocab, s.embDim, s.hidden
	next := func(n int) []float64 {
		b := plane[:n:n]
		plane = plane[n:]
		return b
	}
	emb, wx, wh = tensor.MatrixFrom(v, e, next(v*e)), tensor.MatrixFrom(4*h, e, next(4*h*e)), tensor.MatrixFrom(4*h, h, next(4*h*h))
	return emb, wx, wh, next(4 * h), tensor.MatrixFrom(v, h, next(v*h)), next(v)
}

type lstmStep struct {
	x          []float64 // embedding input
	gates      []float64 // 4H activations in gate order i, f, g, o
	i, f, g, o []float64 // the four quarters of gates
	c, tc, h   []float64 // cell, tanh(cell), hidden
	probs      []float64
}

// NewCharLM builds a character LM for the given vocabulary size, embedding
// dimension and LSTM hidden size.
func NewCharLM(vocab, embDim, hidden int, rng *rand.Rand) *CharLM {
	h := hidden
	m := &CharLM{lmShape: lmShape{vocab, embDim, hidden}}
	m.scratch = listFor(m.lmShape)
	m.backing = make([]float64, vocab*embDim+4*h*embDim+4*h*h+4*h+vocab*h+vocab)
	m.emb, m.wx, m.wh, m.bg, m.wy, m.by = m.carve(m.backing)

	m.emb.XavierInit(rng, vocab, embDim)
	m.wx.XavierInit(rng, embDim, hidden)
	m.wh.XavierInit(rng, hidden, hidden)
	m.wy.XavierInit(rng, hidden, vocab)
	// Standard trick: bias the forget gate open so early training does not
	// immediately wipe the cell state.
	for i := m.hidden; i < 2*m.hidden; i++ {
		m.bg[i] = 1
	}
	return m
}

// NumParams returns the total trainable parameter count.
func (m *CharLM) NumParams() int { return len(m.backing) }

// Params returns a copy of all parameters as one flat vector.
func (m *CharLM) Params() []float64 {
	out := make([]float64, len(m.backing))
	copy(out, m.backing)
	return out
}

// ParamsView returns the live flat parameter vector — a zero-copy
// read-only borrow of the contiguous backing plane. Callers must not
// modify it and must copy whatever they retain across a training step.
func (m *CharLM) ParamsView() []float64 { return m.backing }

// SetParams loads a flat parameter vector produced by Params.
func (m *CharLM) SetParams(p []float64) {
	if len(p) != len(m.backing) {
		panic(fmt.Sprintf("nn: CharLM.SetParams length %d != %d", len(p), len(m.backing)))
	}
	copy(m.backing, p)
}

func (m *CharLM) ensureSteps(n int) {
	for len(m.train.steps) < n {
		h := m.hidden
		gates := make([]float64, 4*h)
		m.train.steps = append(m.train.steps, lstmStep{
			x: make([]float64, m.embDim), gates: gates,
			i: gates[:h], f: gates[h : 2*h], g: gates[2*h : 3*h], o: gates[3*h:],
			c: make([]float64, h), tc: make([]float64, h), h: make([]float64, h),
			probs: make([]float64, m.vocab),
		})
	}
}

// SeqLossAndGrad runs truncated BPTT over seq (a window of character ids),
// predicting seq[t+1] from seq[0..t], accumulates gradients, and returns
// the total cross-entropy loss and the number of predictions made.
// Sequences shorter than 2 characters contribute nothing.
func (m *CharLM) SeqLossAndGrad(seq []int) (loss float64, preds int) {
	T := len(seq) - 1
	if T < 1 {
		return 0, 0
	}
	sc := m.borrow()
	m.ensureSteps(T)
	h := m.hidden
	hPrev, cPrev := sc.zero, sc.zero
	z, zh, logits := sc.z, sc.zh, sc.logits

	// Forward.
	for t := 0; t < T; t++ {
		st := &sc.steps[t]
		copy(st.x, m.emb.Row(seq[t]))
		m.wx.MatVec(z, st.x)
		m.wh.MatVec(zh, hPrev)
		for j := range z {
			z[j] += zh[j] + m.bg[j]
		}
		tensor.SigmoidTo(st.gates[:2*h], z[:2*h]) // i and f
		tensor.TanhTo(st.g, z[2*h:3*h])
		tensor.SigmoidTo(st.o, z[3*h:])
		for j := range st.c {
			st.c[j] = float64(st.f[j]*cPrev[j]) + float64(st.i[j]*st.g[j])
		}
		tensor.TanhTo(st.tc, st.c)
		for j := range st.h {
			st.h[j] = st.o[j] * st.tc[j]
		}
		m.wy.MatVec(logits, st.h)
		tensor.AddInPlace(logits, m.by)
		tensor.SoftmaxTo(st.probs, logits)
		loss += -math.Log(math.Max(st.probs[seq[t+1]], 1e-12))
		hPrev, cPrev = st.h, st.c
	}

	// Backward through time.
	dh, dc, dz, dhRec, dLogits, dx := sc.dh, sc.dc, sc.dz, sc.dhRec, sc.dLogits, sc.dx
	tensor.Zero(dh)
	tensor.Zero(dc)
	for t := T - 1; t >= 0; t-- {
		st := &sc.steps[t]
		copy(dLogits, st.probs)
		dLogits[seq[t+1]] -= 1
		sc.gWy.AddOuter(1, dLogits, st.h)
		tensor.AddInPlace(sc.gBy, dLogits)
		m.wy.MatVecT(dhRec, dLogits)
		for j := 0; j < h; j++ {
			dh[j] += dhRec[j]
		}

		hp, cp := sc.zero, sc.zero
		if t > 0 {
			hp, cp = sc.steps[t-1].h, sc.steps[t-1].c
		}
		for j := 0; j < h; j++ {
			dcj := dc[j] + float64(dh[j]*st.o[j]*(1-float64(st.tc[j]*st.tc[j])))
			doj := dh[j] * st.tc[j]
			dij := dcj * st.g[j]
			dfj := dcj * cp[j]
			dgj := dcj * st.i[j]
			dz[j] = dij * st.i[j] * (1 - st.i[j])
			dz[h+j] = dfj * st.f[j] * (1 - st.f[j])
			dz[2*h+j] = dgj * (1 - float64(st.g[j]*st.g[j]))
			dz[3*h+j] = doj * st.o[j] * (1 - st.o[j])
			dc[j] = dcj * st.f[j]
		}
		sc.gWx.AddOuter(1, dz, st.x)
		sc.gWh.AddOuter(1, dz, hp)
		tensor.AddInPlace(sc.gBg, dz)

		m.wh.MatVecT(dh, dz) // dh for t-1
		m.wx.MatVecT(dx, dz)
		tensor.AddInPlace(sc.gEmb.Row(seq[t]), dx)
	}
	return loss, T
}

// Step applies accumulated gradients with SGD, scaling by 1/count and
// clipping each coordinate to [-clip, clip] (clip <= 0 disables clipping),
// then zeroes the gradients and gives the training scratch back.
func (m *CharLM) Step(lr float64, count int, clip float64) {
	if count <= 0 {
		panic("nn: CharLM.Step with non-positive count")
	}
	scale := 1 / float64(count)
	sc := m.borrow() // at rest the gradients are a free scratch's zeros
	tensor.SGDStep(m.backing, sc.grad, lr, scale, clip)
	m.train = nil
	m.scratch.put(sc)
}

// SeqScratch is the working memory of one SeqLossWith caller: the LSTM
// state, gate pre-activations and output distribution of a forward pass.
// It belongs to the model that made it (NewSeqScratch) and to one
// goroutine at a time.
type SeqScratch struct {
	hPrev, cPrev, hCur, cCur []float64 // H
	z, zh                    []float64 // 4H
	logits, probs            []float64 // vocab
	x                        []float64 // embDim
}

// NewSeqScratch allocates working memory for SeqLossWith on m.
func (m *CharLM) NewSeqScratch() *SeqScratch {
	h := m.hidden
	plane := make([]float64, 12*h+2*m.vocab+m.embDim)
	claim := func(n int) []float64 {
		v := plane[:n:n]
		plane = plane[n:]
		return v
	}
	return &SeqScratch{
		hPrev: claim(h), cPrev: claim(h), hCur: claim(h), cCur: claim(h),
		z: claim(4 * h), zh: claim(4 * h),
		logits: claim(m.vocab), probs: claim(m.vocab), x: claim(m.embDim),
	}
}

// SeqLossWith evaluates the model on seq without touching gradients,
// returning the summed cross-entropy, the number of predictions, and the
// number of correct next-character argmax predictions. It only reads the
// model and computes in sc (from m.NewSeqScratch), so concurrent calls are
// safe with a scratch each.
func (m *CharLM) SeqLossWith(sc *SeqScratch, seq []int) (loss float64, preds, correct int) {
	T := len(seq) - 1
	if T < 1 {
		return 0, 0, 0
	}
	h := m.hidden
	hPrev, cPrev, hCur, cCur := sc.hPrev, sc.cPrev, sc.hCur, sc.cCur
	z, zh, logits, probs, x := sc.z, sc.zh, sc.logits, sc.probs, sc.x
	tensor.Zero(hPrev)
	tensor.Zero(cPrev)

	for t := 0; t < T; t++ {
		copy(x, m.emb.Row(seq[t]))
		m.wx.MatVec(z, x)
		m.wh.MatVec(zh, hPrev)
		for j := range z {
			z[j] += zh[j] + m.bg[j]
		}
		// The gates replace their pre-activations in z.
		tensor.SigmoidTo(z[:2*h], z[:2*h])
		tensor.TanhTo(z[2*h:3*h], z[2*h:3*h])
		tensor.SigmoidTo(z[3*h:], z[3*h:])
		ig, fg, gg, og := z[:h], z[h:2*h], z[2*h:3*h], z[3*h:]
		for j := range cCur {
			cCur[j] = float64(fg[j]*cPrev[j]) + float64(ig[j]*gg[j])
		}
		tensor.TanhTo(hCur, cCur)
		for j := range hCur {
			hCur[j] = og[j] * hCur[j]
		}
		m.wy.MatVec(logits, hCur)
		tensor.AddInPlace(logits, m.by)
		tensor.SoftmaxTo(probs, logits)
		loss += -math.Log(math.Max(probs[seq[t+1]], 1e-12))
		if tensor.ArgMax(probs) == seq[t+1] {
			correct++
		}
		hPrev, hCur = hCur, hPrev
		cPrev, cCur = cCur, cPrev
	}
	return loss, T, correct
}

// String describes the architecture.
func (m *CharLM) String() string {
	return fmt.Sprintf("CharLM(vocab=%d, emb=%d, hidden=%d, params=%d)",
		m.vocab, m.embDim, m.hidden, m.NumParams())
}
