package data

import (
	"fmt"
	"math/rand"

	"github.com/spyker-fl/spyker/internal/tensor"
)

// TextConfig describes a synthetic character stream for language modeling.
type TextConfig struct {
	Vocab     int     // alphabet size
	Length    int     // training stream length in characters
	TestLen   int     // held-out stream length
	Window    int     // BPTT window length per training example
	Sharpness float64 // Markov transition concentration; higher = lower entropy
	Seed      int64
}

// WikiTextLike returns the configuration standing in for WikiText-2
// character-level modeling: a 32-character alphabet and strongly structured
// transitions so an LSTM can push perplexity well below the uniform
// baseline.
func WikiTextLike(length, testLen int, seed int64) TextConfig {
	return TextConfig{
		Vocab: 32, Length: length, TestLen: testLen,
		Window: 16, Sharpness: 6, Seed: seed,
	}
}

// Text is a synthetic character stream generated by a random first-order
// Markov chain. Examples are overlapping windows of the stream; example i
// is the window starting at offset i*Window/2, so shards of indices
// correspond to contiguous regions of text (clients see different "topics",
// a mild natural non-IIDness, as in real federated text data).
type Text struct {
	cfg       TextConfig
	stream    []int
	test      []int
	numTrain  int
	hopLength int
}

// GenerateText materializes the dataset described by cfg.
func GenerateText(cfg TextConfig) *Text {
	if cfg.Vocab < 2 || cfg.Window < 2 || cfg.Length < cfg.Window {
		panic(fmt.Sprintf("data: invalid text config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Row-stochastic transition matrix with Dirichlet-like concentration:
	// each row has a few high-probability successors.
	trans := make([][]float64, cfg.Vocab)
	for i := range trans {
		row := make([]float64, cfg.Vocab)
		var sum float64
		for j := range row {
			row[j] = tensor.Exp(rng.NormFloat64() * cfg.Sharpness / 2)
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
		trans[i] = row
	}

	sample := func(row []float64) int {
		u := rng.Float64()
		var acc float64
		for j, p := range row {
			acc += p
			if u < acc {
				return j
			}
		}
		return len(row) - 1
	}

	gen := func(n int) []int {
		s := make([]int, n)
		cur := rng.Intn(cfg.Vocab)
		for i := 0; i < n; i++ {
			cur = sample(trans[cur])
			s[i] = cur
		}
		return s
	}

	t := &Text{
		cfg:       cfg,
		stream:    gen(cfg.Length),
		test:      gen(cfg.TestLen),
		hopLength: cfg.Window / 2,
	}
	t.numTrain = (cfg.Length - cfg.Window) / t.hopLength
	return t
}

// Len reports the number of training windows.
func (t *Text) Len() int { return t.numTrain }

// Window returns training window i: cfg.Window+1 characters, so a model
// predicting char k+1 from char k gets cfg.Window targets.
func (t *Text) Window(i int) []int {
	start := i * t.hopLength
	end := start + t.cfg.Window + 1
	if end > len(t.stream) {
		end = len(t.stream)
	}
	return t.stream[start:end]
}

// TestWindows cuts the held-out stream into non-overlapping evaluation
// windows.
func (t *Text) TestWindows() [][]int {
	var out [][]int
	step := t.cfg.Window
	for s := 0; s+step+1 <= len(t.test); s += step {
		out = append(out, t.test[s:s+step+1])
	}
	return out
}

// Vocab returns the alphabet size.
func (t *Text) Vocab() int { return t.cfg.Vocab }
