// Package mat provides the small dense linear-algebra substrate used by the
// DDPG networks in package rl and by the functional crossbar simulation in
// package sim. Matrices are row-major float64 and sized for the workloads in
// this repository (layers of a few hundred units), so the implementation
// favors clarity and cache-friendly loops over blocking or SIMD tricks.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (length r*c, row-major) in a Matrix without copying.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice length %d != %d*%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Randomize fills m with uniform values in [-scale, scale) drawn from rng.
func (m *Matrix) Randomize(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// XavierInit fills m with the Glorot-uniform distribution for a layer with
// fanIn inputs and fanOut outputs. The DDPG actor/critic use it so training
// starts in the activations' linear regions.
func (m *Matrix) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	m.Randomize(rng, limit)
}

// AddScaled adds scale·other to m element-wise.
func (m *Matrix) AddScaled(other *Matrix, scale float64) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("mat: AddScaled shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	for i, v := range other.Data {
		m.Data[i] += scale * v
	}
}

// Scale multiplies every element by s.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// MaxAbs returns the largest absolute element value, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var max float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Equal reports whether m and other have identical shape and all elements
// within tol of each other.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-other.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d [", m.Rows, m.Cols)
	for i := 0; i < m.Rows && i < 4; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols && j < 6; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
		if m.Cols > 6 {
			s += " …"
		}
	}
	if m.Rows > 4 {
		s += "; …"
	}
	return s + "]"
}
