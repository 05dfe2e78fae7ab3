package data

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPartitionIIDCoversExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(200)
		k := 1 + rng.Intn(10)
		shards := PartitionIID(n, k, seed)
		if len(shards) != k {
			return false
		}
		seen := make(map[int]bool)
		for _, s := range shards {
			for _, i := range s {
				if i < 0 || i >= n || seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionIIDBalanced(t *testing.T) {
	shards := PartitionIID(103, 10, 1)
	for _, s := range shards {
		if len(s) < 10 || len(s) > 11 {
			t.Fatalf("shard size %d not in {10,11}", len(s))
		}
	}
}

func TestPartitionIIDInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PartitionIID(10, 0, 1)
}

func TestPartitionByLabelRespectsL(t *testing.T) {
	ds := GenerateImages(MNISTLike(500, 0, 1))
	shards := PartitionByLabel(ds, 20, 2, 1)
	if len(shards) != 20 {
		t.Fatalf("got %d shards", len(shards))
	}
	allLabels := make(map[int]bool)
	for c, s := range shards {
		if len(s) == 0 {
			t.Fatalf("client %d got an empty shard", c)
		}
		labels := make(map[int]bool)
		for _, i := range s {
			labels[ds.Label(i)] = true
			allLabels[ds.Label(i)] = true
		}
		if len(labels) > 2 {
			t.Errorf("client %d has %d labels, want <= 2", c, len(labels))
		}
	}
	if len(allLabels) != ds.NumClasses() {
		t.Errorf("only %d of %d labels covered across clients", len(allLabels), ds.NumClasses())
	}
}

func TestPartitionByLabelNoDuplicates(t *testing.T) {
	ds := GenerateImages(MNISTLike(300, 0, 2))
	shards := PartitionByLabel(ds, 10, 2, 3)
	seen := make(map[int]bool)
	for _, s := range shards {
		for _, i := range s {
			if seen[i] {
				t.Fatalf("example %d assigned twice", i)
			}
			seen[i] = true
		}
	}
}

func TestPartitionByLabelInvalidPanics(t *testing.T) {
	ds := GenerateImages(MNISTLike(100, 0, 1))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PartitionByLabel(ds, 5, 0, 1)
}

func TestGenerateImagesShape(t *testing.T) {
	ds := GenerateImages(MNISTLike(200, 50, 1))
	if ds.Len() != 200 {
		t.Errorf("Len = %d", ds.Len())
	}
	if got := len(ds.Input(0)); got != 144 {
		t.Errorf("input dim = %d", got)
	}
	if l := ds.Label(3); l < 0 || l >= 10 {
		t.Errorf("label out of range: %d", l)
	}
	test := ds.TestSet()
	if test.Len() != 50 {
		t.Errorf("test len = %d", test.Len())
	}
	if test.NumClasses() != 10 {
		t.Errorf("test classes = %d", test.NumClasses())
	}
}

func TestGenerateImagesLabelBalance(t *testing.T) {
	ds := GenerateImages(MNISTLike(1000, 0, 4))
	counts := make([]int, ds.NumClasses())
	for i := 0; i < ds.Len(); i++ {
		counts[ds.Label(i)]++
	}
	for l, c := range counts {
		if c != 100 {
			t.Errorf("label %d has %d examples, want 100", l, c)
		}
	}
}

func TestGenerateImagesDeterministic(t *testing.T) {
	a := GenerateImages(MNISTLike(50, 10, 9))
	b := GenerateImages(MNISTLike(50, 10, 9))
	for i := 0; i < a.Len(); i++ {
		xa, xb := a.Input(i), b.Input(i)
		for j := range xa {
			if xa[j] != xb[j] {
				t.Fatal("same seed produced different data")
			}
		}
	}
	c := GenerateImages(MNISTLike(50, 10, 10))
	diff := false
	for j, v := range a.Input(0) {
		if v != c.Input(0)[j] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical data")
	}
}

func TestCIFARLikeIsThreeChannel(t *testing.T) {
	ds := GenerateImages(CIFARLike(100, 10, 1))
	ch, h, w := ds.Shape()
	if ch != 3 || h != 12 || w != 12 {
		t.Errorf("shape = %d,%d,%d", ch, h, w)
	}
}

func TestGenerateImagesInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	GenerateImages(ImageConfig{Classes: 1, Train: 10})
}

// TestImagesLearnable: a trivial nearest-template classifier must beat
// chance by a wide margin, otherwise the FL tasks are unlearnable noise.
func TestImagesLearnable(t *testing.T) {
	ds := GenerateImages(MNISTLike(300, 100, 5))
	test := ds.TestSet()
	correct := 0
	for i := 0; i < test.Len(); i++ {
		x := test.Input(i)
		best, bestDist := -1, 0.0
		for c := 0; c < ds.NumClasses(); c++ {
			var dist float64
			for j, v := range ds.templates[c] {
				d := x[j] - v
				dist += d * d
			}
			if best == -1 || dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best == test.Label(i) {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.5 {
		t.Errorf("nearest-template accuracy %.2f, dataset too noisy", acc)
	}
}
