package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Data[0*3+1] = 5
	m.Data[1*3+2] = 7
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 {
		t.Errorf("Row = %v", row)
	}
}

func TestMatrixFromValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong data length")
		}
	}()
	MatrixFrom(2, 2, []float64{1, 2, 3})
}

func TestMatVec(t *testing.T) {
	m := MatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 2)
	m.MatVec(dst, []float64{1, 0, -1})
	if dst[0] != -2 || dst[1] != -2 {
		t.Errorf("MatVec = %v", dst)
	}
}

// TestMatVecTAdjoint checks the adjoint identity <Ax, y> == <x, A^T y>,
// which is exactly what backprop correctness depends on.
func TestMatVecTAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(8)
		c := 1 + rng.Intn(8)
		m := NewMatrix(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		x := make([]float64, c)
		y := make([]float64, r)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		ax := make([]float64, r)
		m.MatVec(ax, x)
		aty := make([]float64, c)
		m.MatVecT(aty, y)
		return math.Abs(dot(ax, y)-dot(x, aty)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter(2, []float64{1, 3}, []float64{5, 7})
	want := []float64{10, 14, 30, 42}
	for i, v := range m.Data {
		if v != want[i] {
			t.Fatalf("AddOuter = %v", m.Data)
		}
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(10, 10)
	m.XavierInit(rng, 10, 10)
	limit := math.Sqrt(6.0 / 20.0)
	var nonzero int
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("value %v outside Xavier limit %v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 90 {
		t.Errorf("only %d of 100 weights nonzero", nonzero)
	}
}
