// Package tensor provides dense single-precision matrices and vectors used
// throughout the training stack.
//
// The paper's workloads are dominated by single-precision GEMM (SGEMM), so
// the primary element type is float32. Matrices are stored row-major in a
// flat slice with an explicit stride, which lets submatrix views share
// storage with their parent.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix. The element (i, j) is stored
// at Data[i*Stride+j]. A Matrix with Stride == Cols is "compact": its rows
// are contiguous in memory.
type Matrix struct {
	Rows   int
	Cols   int
	Stride int
	Data   []float32
}

// NewMatrix returns a zeroed r×c compact matrix.
//
//lint:shape return=(r,c)
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: invalid dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: make([]float32, r*c)}
}

// FromSlice returns an r×c matrix whose backing array is data, which must
// hold exactly r*c elements. The matrix shares storage with data.
//
//lint:shape data=r*c return=(r,c)
func FromSlice(r, c int, data []float32) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: FromSlice needs %d elements, got %d", r*c, len(data)))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 {
	m.checkIndex(i, j)
	return m.Data[i*m.Stride+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float32) {
	m.checkIndex(i, j)
	m.Data[i*m.Stride+j] = v
}

func (m *Matrix) checkIndex(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range %d×%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns row i as a slice sharing storage with the matrix.
//
//lint:shape return=m.Cols
func (m *Matrix) Row(i int) []float32 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// View returns the r×c submatrix whose top-left corner is (i, j). The view
// shares storage with m.
//
//lint:shape return=(r,c)
func (m *Matrix) View(i, j, r, c int) *Matrix {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("tensor: view (%d,%d,%d,%d) out of range %d×%d", i, j, r, c, m.Rows, m.Cols))
	}
	return &Matrix{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[i*m.Stride+j:]}
}

// Clone returns a compact deep copy of m.
//
//lint:shape return=(m.Rows,m.Cols)
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float32) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() { m.Fill(0) }

// Scale multiplies every element of m by alpha.
func (m *Matrix) Scale(alpha float32) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= alpha
		}
	}
}

// T returns a compact transposed copy of m.
//
//lint:shape return=(m.Cols,m.Rows)
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Stride+i] = v
		}
	}
	return out
}

// EqualApprox reports whether a and b have the same shape and all elements
// within tol of each other.
func EqualApprox(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Abs(float64(ra[j])-float64(rb[j])) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b, which must have the same shape.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MaxAbsDiff shape mismatch %d×%d vs %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var max float64
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			d := math.Abs(float64(ra[j]) - float64(rb[j]))
			if d > max {
				max = d
			}
		}
	}
	return max
}

// String renders small matrices for debugging; large matrices are
// summarized by shape only.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%d×%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%d×%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
