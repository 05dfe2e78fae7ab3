package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The three functions below are the matrix kernels exactly as they stood
// before they were rewritten for speed (one serial accumulator chain per
// row, one load/store of dst per row). They are the definition of the
// ordering contract: the production kernels must produce the same bits,
// because every accumulator still sees the same additions in the same
// order. They live in a test file so the slow forms cannot be called by
// mistake.

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

// TestKernelsMatchReferenceBits drives the production kernels and the
// reference loops over random shapes — row counts on both sides of every
// multiple of four, so full groups, tails and tail-only matrices all
// occur — and demands bit-equal results, including the skip-on-zero
// behaviour of MatVecT and AddOuter (a skipped row is not the same as
// adding a signed zero).
func TestKernelsMatchReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		rows, cols := 1+rng.Intn(19), 1+rng.Intn(23)
		if trial%50 == 0 {
			rows, cols = 32, 150 // the MNIST CNN's first dense layer
		}
		zeroShare := []float64{0, 0.3, 0.9, 1}[trial%4]

		m, ref := NewMatrix(rows, cols), NewMatrix(rows, cols)
		awkward(rng, m.Data, 0.1)
		copy(ref.Data, m.Data)

		x := make([]float64, cols)
		awkward(rng, x, zeroShare)
		got, want := make([]float64, rows), make([]float64, rows)
		m.MatVec(got, x)
		refMatVec(ref, want, x)
		sameBits(t, "MatVec", got, want)

		y := make([]float64, rows)
		awkward(rng, y, zeroShare)
		gotT, wantT := make([]float64, cols), make([]float64, cols)
		Fill(gotT, 99) // MatVecT overwrites, it does not accumulate
		m.MatVecT(gotT, y)
		refMatVecT(ref, wantT, y)
		sameBits(t, "MatVecT", gotT, wantT)

		// Several accumulating calls, as a batch of Backward calls makes
		// between two Steps.
		for call := 0; call < 3; call++ {
			awkward(rng, y, zeroShare)
			awkward(rng, x, 0.2)
			alpha := []float64{1, -0.5, 0}[call]
			m.AddOuter(alpha, y, x)
			refAddOuter(ref, alpha, y, x)
		}
		sameBits(t, "AddOuter", m.Data, ref.Data)
	}
}

// TestSoftmaxAtMatchesSoftmaxBits: picking one element without
// materializing the vector gives the bits SoftmaxTo gives.
func TestSoftmaxAtMatchesSoftmaxBits(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		a := make([]float64, 1+rng.Intn(40))
		awkward(rng, a, 0.1)
		want := Softmax(a)
		for i := range a {
			if got := SoftmaxAt(a, i); math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("SoftmaxAt(%v, %d) = %v, Softmax gives %v", a, i, got, want[i])
			}
		}
	}
}
