package data

import (
	"testing"
)

func TestGenerateTextBasics(t *testing.T) {
	txt := GenerateText(WikiTextLike(2000, 300, 1))
	if txt.Vocab() != 32 {
		t.Errorf("Vocab = %d", txt.Vocab())
	}
	if txt.Len() <= 0 {
		t.Fatal("no training windows")
	}
	for i := 0; i < txt.Len(); i++ {
		w := txt.Window(i)
		if len(w) < 2 {
			t.Fatalf("window %d has length %d", i, len(w))
		}
		for _, c := range w {
			if c < 0 || c >= txt.Vocab() {
				t.Fatalf("character %d out of vocab", c)
			}
		}
	}
}

func TestTextWindowsOverlap(t *testing.T) {
	cfg := WikiTextLike(1000, 100, 2)
	txt := GenerateText(cfg)
	w0 := txt.Window(0)
	w1 := txt.Window(1)
	// Hop is Window/2, so the second half of w0 equals the first half of w1.
	hop := cfg.Window / 2
	for i := 0; i < hop; i++ {
		if w0[hop+i] != w1[i] {
			t.Fatal("windows do not overlap as documented")
		}
	}
}

func TestTestWindows(t *testing.T) {
	cfg := WikiTextLike(1000, 200, 3)
	txt := GenerateText(cfg)
	tw := txt.TestWindows()
	if len(tw) == 0 {
		t.Fatal("no test windows")
	}
	for _, w := range tw {
		if len(w) != cfg.Window+1 {
			t.Fatalf("test window length %d, want %d", len(w), cfg.Window+1)
		}
	}
}

func TestTextDeterministic(t *testing.T) {
	a := GenerateText(WikiTextLike(500, 100, 7))
	b := GenerateText(WikiTextLike(500, 100, 7))
	for i := 0; i < a.Len(); i++ {
		wa, wb := a.Window(i), b.Window(i)
		for j := range wa {
			if wa[j] != wb[j] {
				t.Fatal("same seed produced different text")
			}
		}
	}
}

// TestTextHasStructure: the Markov stream must be far from uniform — a
// bigram model's empirical conditional entropy should be well below
// log2(vocab), otherwise the LM task cannot show perplexity improvements.
func TestTextHasStructure(t *testing.T) {
	txt := GenerateText(WikiTextLike(20000, 100, 4))
	// Count bigrams over the training stream via windows 0..Len-1.
	counts := make(map[[2]int]int)
	prevCounts := make(map[int]int)
	for i := 0; i < txt.Len(); i++ {
		w := txt.Window(i)
		// Use only the first hop of each window to avoid double counting.
		for j := 0; j+1 < len(w)/2; j++ {
			counts[[2]int{w[j], w[j+1]}]++
			prevCounts[w[j]]++
		}
	}
	// Most-likely-successor accuracy: structured text should beat 1/vocab
	// by a large factor.
	best := make(map[int]int)
	bestC := make(map[int]int)
	for bg, c := range counts {
		if c > bestC[bg[0]] {
			bestC[bg[0]] = c
			best[bg[0]] = bg[1]
		}
	}
	var hit, total int
	for bg, c := range counts {
		if best[bg[0]] == bg[1] {
			hit += c
		}
		total += c
	}
	accuracy := float64(hit) / float64(total)
	if accuracy < 0.2 { // uniform would give ~1/32 = 0.03
		t.Errorf("best-successor accuracy %.3f, text lacks structure", accuracy)
	}
}

func TestGenerateTextInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	GenerateText(TextConfig{Vocab: 1, Length: 100, Window: 10})
}
