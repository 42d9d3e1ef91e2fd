package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor. The zero value is a scalar
// holding 0; use New or From to construct tensors with a shape.
type Tensor struct {
	shape Shape
	data  []float32
}

// New allocates a zero-filled tensor with the given shape.
// It panics if any dimension is non-positive.
func New(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	return &Tensor{shape: s, data: make([]float32, s.NumElements())}
}

// From wraps an existing backing slice in a tensor with the given shape.
// The slice is used directly (not copied); its length must equal the number
// of elements implied by the shape.
func From(data []float32, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	if len(data) != s.NumElements() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)",
			len(data), s, s.NumElements()))
	}
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor's shape. Callers must not mutate it.
func (t *Tensor) Shape() Shape { return t.shape }

// Data returns the backing slice in row-major order.
func (t *Tensor) Data() []float32 { return t.data }

// NumElements returns the total element count.
func (t *Tensor) NumElements() int { return len(t.data) }

// Dim returns the extent of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Offset computes the row-major linear offset of a multidimensional index.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// At returns the element at the given multidimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.Offset(idx...)] }

// Set stores v at the given multidimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.Offset(idx...)] = v }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of the same data with a new shape. The element
// count must be preserved. The returned tensor shares storage with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if s.NumElements() != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.shape, len(t.data), s, s.NumElements()))
	}
	return &Tensor{shape: s, data: t.data}
}

// Fill sets every element to v and returns t for chaining.
func (t *Tensor) Fill(v float32) *Tensor {
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Add accumulates o into t elementwise. Shapes must match exactly.
func (t *Tensor) Add(o *Tensor) *Tensor {
	if !t.shape.Equal(o.shape) {
		panic(fmt.Sprintf("tensor: add shape mismatch %v vs %v", t.shape, o.shape))
	}
	for i := range t.data {
		t.data[i] += o.data[i]
	}
	return t
}

// MaxAbs returns the largest absolute element value, or 0 for empty tensors.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.data {
		if a := float32(math.Abs(float64(v))); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of all elements in float64 to limit rounding error.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// AllClose reports whether every pair of corresponding elements of t and o
// differs by at most atol + rtol*|o|. Shapes must match.
func AllClose(t, o *Tensor, rtol, atol float64) bool {
	if !t.shape.Equal(o.shape) {
		return false
	}
	for i := range t.data {
		a, b := float64(t.data[i]), float64(o.data[i])
		if math.IsNaN(a) || math.IsNaN(b) {
			return false
		}
		if math.Abs(a-b) > atol+rtol*math.Abs(b) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute elementwise difference between two
// tensors of identical shape.
func MaxAbsDiff(t, o *Tensor) float64 {
	if !t.shape.Equal(o.shape) {
		panic(fmt.Sprintf("tensor: diff shape mismatch %v vs %v", t.shape, o.shape))
	}
	var m float64
	for i := range t.data {
		if d := math.Abs(float64(t.data[i]) - float64(o.data[i])); d > m {
			m = d
		}
	}
	return m
}

// String summarizes the tensor without dumping all elements.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(shape=%v, elems=%d)", t.shape, len(t.data))
}
