package fl

import (
	"math/rand"
	"sync"

	"github.com/spyker-fl/spyker/internal/data"
	"github.com/spyker-fl/spyker/internal/nn"
	"github.com/spyker-fl/spyker/internal/tensor"
)

// Classifier adapts an nn.Network over a classification dataset to the
// Model interface. Training shuffles the shard each epoch and applies
// mini-batch SGD.
type Classifier struct {
	net       *nn.Network
	train     data.Classification
	test      data.Classification
	batchSize int
	clip      float64
	rng       *rand.Rand

	// order is Train's shuffle buffer, kept so a call allocates nothing.
	order []int
	// Held-out evaluation state, built on the first Evaluate: of the some
	// hundred models a run creates only the recorder's ever evaluates.
	// scorers[w] runs the forward passes of chunk w — the classifier's own
	// network for worker 0, forward-only replicas aliasing its parameters
	// for the others; loss and hit hold one entry per held-out sample.
	scorers []*nn.Network
	loss    []float64
	hit     []bool
}

var _ Model = (*Classifier)(nil)

// isolatedTrainer marks the models whose Train meets the isolation
// contract of Model, so SimClient may run it off the event loop. The
// method is unexported and returns its receiver: no type outside this
// package can declare it, and a wrapper that embeds one of these models
// and substitutes its own Train is told apart by not being the value
// returned. A foreign Model is therefore always trained on the loop.
type isolatedTrainer interface{ trainsIsolated() Model }

// trainsIsolated: Train writes the network's own planes and scratch, rng
// and order; the dataset accessors are pure reads.
func (c *Classifier) trainsIsolated() Model { return c }

// evalWorkers is the fan-out of held-out evaluation. It is a constant,
// not the machine's core count: where the code runs must not decide how
// the work is cut (internal/lint's paridiom rule).
const evalWorkers = 4

// fanOut cuts [0, n) into `workers` contiguous chunks at fixed boundaries
// and runs score(w, lo, hi) for each non-empty one — chunk 0 on the
// calling goroutine, the others on their own — returning when all are
// done. score must write nothing but per-index results (out[i] for i in
// [lo, hi)) and worker w's own scratch. The caller then combines the
// results in index order, so the outcome depends neither on how the
// goroutines were scheduled nor on the cut.
func fanOut(n, workers int, score func(w, lo, hi int)) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			score(w, lo, hi)
		}()
	}
	if hi := n / workers; hi > 0 {
		score(0, 0, hi)
	}
	wg.Wait()
}

// NewClassifier wraps net for federated training over train, evaluating on
// test. batchSize <= 0 defaults to 10.
func NewClassifier(net *nn.Network, train, test data.Classification, batchSize int, seed int64) *Classifier {
	if batchSize <= 0 {
		batchSize = 10
	}
	return &Classifier{
		net:       net,
		train:     train,
		test:      test,
		batchSize: batchSize,
		clip:      5,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// NewMNISTClassifier builds the paper's MNIST CNN over ds — one 3x3
// convolution of `filters` feature maps, ReLU, 2x2 max-pooling, a dense
// layer of `hidden` units, ReLU, and the output layer — as a Classifier
// with batch size 10. The paper's sizes are 6 filters and 32 hidden units;
// every weight is drawn from seed.
func NewMNISTClassifier(ds *data.Images, filters, hidden int, seed int64) *Classifier {
	rng := rand.New(rand.NewSource(seed))
	ch, h, w := ds.Shape()
	conv := nn.NewConv2D(ch, h, w, filters, 3, rng) // filters x (h-2) x (w-2)
	pool := nn.NewMaxPool2D(filters, h-2, w-2)
	net := nn.NewNetwork(
		conv,
		nn.NewReLU(conv.OutSize()),
		pool,
		nn.NewDense(pool.OutSize(), hidden, rng),
		nn.NewReLU(hidden),
		nn.NewDense(hidden, ds.NumClasses(), rng),
	)
	return NewClassifier(net, ds, ds.TestSet(), 10, seed)
}

// NumParams implements Model.
func (c *Classifier) NumParams() int { return c.net.NumParams() }

// Params implements Model.
func (c *Classifier) Params() []float64 { return c.net.Params() }

// ParamsView implements Model: a zero-copy borrow of the network's
// contiguous parameter plane.
func (c *Classifier) ParamsView() []float64 { return c.net.ParamsView() }

// SetParams implements Model.
func (c *Classifier) SetParams(p []float64) { c.net.SetParams(p) }

// Train implements Model.
func (c *Classifier) Train(shard []int, epochs int, lr float64) {
	if len(shard) == 0 || epochs <= 0 {
		return
	}
	order := append(c.order[:0], shard...)
	c.order = order
	for e := 0; e < epochs; e++ {
		c.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += c.batchSize {
			end := start + c.batchSize
			if end > len(order) {
				end = len(order)
			}
			for _, idx := range order[start:end] {
				c.net.LossAndGrad(c.train.Input(idx), c.train.Label(idx))
			}
			c.net.Step(lr, end-start, c.clip)
		}
	}
}

// Evaluate implements Model. The held-out samples are scored in parallel
// (see fanOut) into per-sample slots, and the slots are summed here in
// sample order: the same additions in the same order as a plain loop over
// the set, so the result is the same to the last bit.
func (c *Classifier) Evaluate() (loss, acc float64) {
	n := c.test.Len()
	if n == 0 {
		return 0, 0
	}
	if c.scorers == nil {
		c.buildScorers(n)
	}
	fanOut(n, len(c.scorers), func(w, lo, hi int) {
		net := c.scorers[w]
		for i := lo; i < hi; i++ {
			label := c.test.Label(i)
			logits := net.Forward(c.test.Input(i))
			c.hit[i] = tensor.ArgMax(logits) == label
			c.loss[i] = nn.CrossEntropyFromLogits(logits, label)
		}
	})
	correct := 0
	for i, l := range c.loss {
		loss += l
		if c.hit[i] {
			correct++
		}
	}
	return loss / float64(n), float64(correct) / float64(n)
}

// buildScorers sets up evaluation over n held-out samples: the network
// itself scores chunk 0 and a forward-only replica each of the others. A
// network that cannot be replicated scores the whole set alone.
func (c *Classifier) buildScorers(n int) {
	c.loss, c.hit = make([]float64, n), make([]bool, n)
	c.scorers = []*nn.Network{c.net}
	for len(c.scorers) < evalWorkers {
		r := c.net.Replica()
		if r == nil {
			break
		}
		c.scorers = append(c.scorers, r)
	}
}

// LanguageModel adapts an nn.CharLM over a synthetic text corpus to the
// Model interface. A shard indexes training windows; the evaluation metric
// pair is (average per-character cross entropy, next-character accuracy),
// so exp(loss) is the perplexity reported in the paper's WikiText figures.
type LanguageModel struct {
	lm   *nn.CharLM
	text *data.Text
	clip float64
	rng  *rand.Rand

	testWindows [][]int

	// order is Train's shuffle buffer, kept so a call allocates nothing.
	order []int
	// windows holds one evaluation result per test window and scratch one
	// forward-pass working memory per fanOut worker, both built on the
	// first Evaluate.
	windows []windowScore
	scratch [evalWorkers]*nn.SeqScratch
}

type windowScore struct {
	loss        float64
	preds, hits int
}

var _ Model = (*LanguageModel)(nil)

// trainsIsolated: Train writes the LSTM's own planes and BPTT scratch, rng
// and order; Text.Window is a pure read.
func (m *LanguageModel) trainsIsolated() Model { return m }

// NewLanguageModel wraps lm for federated training over text.
func NewLanguageModel(lm *nn.CharLM, text *data.Text, seed int64) *LanguageModel {
	return &LanguageModel{
		lm:          lm,
		text:        text,
		clip:        5,
		rng:         rand.New(rand.NewSource(seed)),
		testWindows: text.TestWindows(),
	}
}

// NumParams implements Model.
func (m *LanguageModel) NumParams() int { return m.lm.NumParams() }

// Params implements Model.
func (m *LanguageModel) Params() []float64 { return m.lm.Params() }

// ParamsView implements Model: a zero-copy borrow of the LSTM's
// contiguous parameter plane.
func (m *LanguageModel) ParamsView() []float64 { return m.lm.ParamsView() }

// SetParams implements Model.
func (m *LanguageModel) SetParams(p []float64) { m.lm.SetParams(p) }

// Train implements Model.
func (m *LanguageModel) Train(shard []int, epochs int, lr float64) {
	if len(shard) == 0 || epochs <= 0 {
		return
	}
	order := append(m.order[:0], shard...)
	m.order = order
	for e := 0; e < epochs; e++ {
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, wi := range order {
			if _, preds := m.lm.SeqLossAndGrad(m.text.Window(wi)); preds > 0 {
				m.lm.Step(lr, preds, m.clip)
			}
		}
	}
}

// Evaluate implements Model. Windows are scored in parallel (see fanOut;
// CharLM.SeqLossWith only reads the model and writes worker w's scratch)
// and summed here in window order, as a plain loop over them would.
func (m *LanguageModel) Evaluate() (loss, acc float64) {
	if m.windows == nil {
		m.windows = make([]windowScore, len(m.testWindows))
		for w := range m.scratch {
			m.scratch[w] = m.lm.NewSeqScratch()
		}
	}
	fanOut(len(m.windows), evalWorkers, func(w, lo, hi int) {
		sc := m.scratch[w]
		for i := lo; i < hi; i++ {
			ws := &m.windows[i]
			ws.loss, ws.preds, ws.hits = m.lm.SeqLossWith(sc, m.testWindows[i])
		}
	})
	var totalLoss float64
	var preds, correct int
	for _, w := range m.windows {
		totalLoss += w.loss
		preds += w.preds
		correct += w.hits
	}
	if preds == 0 {
		return 0, 0
	}
	return totalLoss / float64(preds), float64(correct) / float64(preds)
}
