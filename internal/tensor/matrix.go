package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix backed by a flat slice, so a matrix's
// storage can be aliased into a model's flat parameter vector without
// copying.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFrom wraps an existing slice as a Rows x Cols matrix. The slice is
// aliased, not copied; it must have exactly rows*cols elements.
func MatrixFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Set writes v at row r, column c.
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns the slice aliasing row r.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// MatVec computes dst = m * x. dst must have length m.Rows and x length
// m.Cols. dst may not alias x.
//
// Every dst[r] is one accumulator that starts at +0 and adds row[c]*x[c]
// for c = 0, 1, ... in that order. Several rows are computed side by side
// so that several such chains are in flight instead of one — a single
// chain is bound by the latency of a floating-point add, not by arithmetic
// throughput — but each row's own order of additions is never touched, so
// the result is the same to the last bit as the one-row-at-a-time loop.
func (m *Matrix) MatVec(dst, x []float64) {
	mustSameLen(len(dst), m.Rows)
	mustSameLen(len(x), m.Cols)
	m.mustBeWhole()
	m.matVec(dst, x)
}

// MatVecT computes dst = m^T * x (x has length m.Rows, dst length m.Cols).
// It is the backward pass of MatVec.
//
// Every dst[c] is one accumulator that starts at +0 and adds row_r[c]*x[r]
// for the rows with x[r] != 0, in increasing r. Rows with x[r] == 0 are
// skipped, not added: adding a signed zero can change the sign of a zero
// sum.
func (m *Matrix) MatVecT(dst, x []float64) {
	mustSameLen(len(dst), m.Cols)
	mustSameLen(len(x), m.Rows)
	m.mustBeWhole()
	m.matVecT(dst, x)
}

// AddOuter accumulates the outer product a*b^T into m:
// m[r][c] += alpha * a[r] * b[c]. It is the weight-gradient kernel of a
// dense layer. Each element receives exactly one addition per call, and
// rows with alpha*a[r] == 0 are skipped, not added.
func (m *Matrix) AddOuter(alpha float64, a, b []float64) {
	mustSameLen(len(a), m.Rows)
	mustSameLen(len(b), m.Cols)
	m.mustBeWhole()
	m.addOuter(alpha, a, b)
}

// mustBeWhole panics unless Data holds exactly Rows*Cols elements. The
// fields are exported, so a Matrix can be built by hand, and the assembly
// kernels do not bounds-check.
func (m *Matrix) mustBeWhole() {
	if len(m.Data) != m.Rows*m.Cols {
		panic(fmt.Sprintf("tensor: matrix data length %d != %d*%d", len(m.Data), m.Rows, m.Cols))
	}
}

// XavierInit fills m with samples from U(-limit, limit) where
// limit = sqrt(6/(fanIn+fanOut)), the Glorot uniform initializer.
func (m *Matrix) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}
