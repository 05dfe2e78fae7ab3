package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestInPlaceOps(t *testing.T) {
	a := []float64{1, 2}
	AddInPlace(a, []float64{10, 20})
	if a[0] != 11 || a[1] != 22 {
		t.Errorf("AddInPlace = %v", a)
	}
	AXPY(0.5, a, []float64{2, 4})
	if a[0] != 12 || a[1] != 24 {
		t.Errorf("AXPY = %v", a)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax(nil) != -1 {
		t.Error("ArgMax(nil) != -1")
	}
	if got := ArgMax([]float64{1, 5, 3, 5}); got != 1 {
		t.Errorf("ArgMax ties should pick first: %d", got)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 10
		}
		s := make([]float64, n)
		SoftmaxTo(s, a)
		var sum float64
		for _, v := range s {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return almostEq(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxExtremeValuesStable(t *testing.T) {
	s := make([]float64, 3)
	SoftmaxTo(s, []float64{1000, 999, -1000})
	if math.IsNaN(s[0]) || s[0] < s[1] {
		t.Errorf("softmax unstable: %v", s)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	AddInPlace([]float64{1}, []float64{1, 2})
}

func TestZeroFillClone(t *testing.T) {
	a := []float64{1, 2}
	b := Clone(a)
	Zero(a)
	if a[0] != 0 || a[1] != 0 {
		t.Error("Zero failed")
	}
	if b[0] != 1 || b[1] != 2 {
		t.Error("Clone aliased storage")
	}
	Fill(b, 7)
	if b[0] != 7 || b[1] != 7 {
		t.Error("Fill failed")
	}
}
