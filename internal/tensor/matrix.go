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

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set writes v at row r, column c.
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns the slice aliasing row r.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: Clone(m.Data)}
}

// MatVec computes dst = m * x. dst must have length m.Rows and x length
// m.Cols. dst may not alias x.
//
// Every dst[r] is one accumulator that starts at +0 and adds row[c]*x[c]
// for c = 0, 1, ... in that order. Four rows are computed side by side so
// that four such chains are in flight instead of one — a single chain is
// bound by the latency of a floating-point add, not by arithmetic
// throughput — but each row's own order of additions is never touched, so
// the result is the same to the last bit as the one-row-at-a-time loop.
func (m *Matrix) MatVec(dst, x []float64) {
	mustSameLen(len(dst), m.Rows)
	mustSameLen(len(x), m.Cols)
	cols := m.Cols
	r := 0
	for ; r+4 <= m.Rows; r += 4 {
		// Re-slicing to len(r0) lets the compiler drop the bounds checks
		// in the loop.
		r0 := m.Data[r*cols : (r+1)*cols]
		r1 := m.Data[(r+1)*cols:][:len(r0)]
		r2 := m.Data[(r+2)*cols:][:len(r0)]
		r3 := m.Data[(r+3)*cols:][:len(r0)]
		x := x[:len(r0)]
		var s0, s1, s2, s3 float64
		for c, w0 := range r0 {
			xv := x[c]
			s0 += w0 * xv
			s1 += r1[c] * xv
			s2 += r2[c] * xv
			s3 += r3[c] * xv
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < m.Rows; r++ {
		row := m.Data[r*cols : (r+1)*cols]
		x := x[:len(row)]
		var s float64
		for c, w := range row {
			s += w * x[c]
		}
		dst[r] = s
	}
}

// MatVecT computes dst = m^T * x (x has length m.Rows, dst length m.Cols).
// It is the backward pass of MatVec.
//
// Every dst[c] is one accumulator that starts at +0 and adds row_r[c]*x[r]
// for the rows with x[r] != 0, in increasing r. Rows with x[r] == 0 are
// skipped, not added: adding a signed zero can change the sign of a zero
// sum. The next four contributing rows are gathered and applied to dst[c]
// in row order in one pass, so dst is loaded and stored once per four rows
// instead of once per row; the additions each dst[c] sees, and their
// order, are unchanged.
func (m *Matrix) MatVecT(dst, x []float64) {
	mustSameLen(len(dst), m.Cols)
	mustSameLen(len(x), m.Rows)
	Zero(dst)
	cols := m.Cols
	var rows [4][]float64
	var xs [4]float64
	n := 0
	for r, xv := range x {
		if xv == 0 {
			continue
		}
		rows[n], xs[n] = m.Data[r*cols:(r+1)*cols], xv
		if n++; n < 4 {
			continue
		}
		n = 0
		r0, r1, r2, r3 := rows[0][:len(dst)], rows[1][:len(dst)], rows[2][:len(dst)], rows[3][:len(dst)]
		x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
		for c, d := range dst {
			d += r0[c] * x0
			d += r1[c] * x1
			d += r2[c] * x2
			d += r3[c] * x3
			dst[c] = d
		}
	}
	for i := 0; i < n; i++ {
		row, xv := rows[i][:len(dst)], xs[i]
		for c := range dst {
			dst[c] += row[c] * xv
		}
	}
}

// AddOuter accumulates the outer product a*b^T into m:
// m[r][c] += alpha * a[r] * b[c]. It is the weight-gradient kernel of a
// dense layer. Each element receives exactly one addition per call, and
// rows with alpha*a[r] == 0 are skipped, not added. The elements are
// independent, so the row loop is simply unrolled by four.
func (m *Matrix) AddOuter(alpha float64, a, b []float64) {
	mustSameLen(len(a), m.Rows)
	mustSameLen(len(b), m.Cols)
	for r, ar := range a {
		av := alpha * ar
		if av == 0 {
			continue
		}
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		b := b[:len(row)]
		c := 0
		for ; c+4 <= len(row); c += 4 {
			r4, b4 := row[c:c+4:c+4], b[c:c+4:c+4]
			r4[0] += av * b4[0]
			r4[1] += av * b4[1]
			r4[2] += av * b4[2]
			r4[3] += av * b4[3]
		}
		for ; c < len(row); c++ {
			row[c] += av * b[c]
		}
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
