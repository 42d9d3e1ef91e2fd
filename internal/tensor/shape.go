// Package tensor provides the dense tensor substrate used throughout the
// INSPIRE reproduction: shapes and strides, row-major storage, reference
// implementations of the neural-network primitives (GEMM, im2col, direct
// convolution, pooling, batch normalization, activations), and a seeded
// deterministic random number generator for synthetic weights.
//
// Everything in this package is plain float32 CPU code. It is the functional
// ground truth that the encoded (IPE), sparse, and auto-tuned kernels are
// verified against, and it supplies the operation counts that the simulated
// accelerator (internal/accel) turns into cycles and energy.
package tensor

import "fmt"

// Shape describes the extent of each tensor dimension, outermost first.
// A nil or empty Shape denotes a scalar.
type Shape []int

// NumElements returns the total number of elements implied by the shape.
// A scalar shape has one element. Any non-positive dimension yields zero.
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		if d <= 0 {
			return 0
		}
		n *= d
	}
	return n
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	if s == nil {
		return nil
	}
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Valid reports whether every dimension is strictly positive.
func (s Shape) Valid() bool {
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}

// String renders the shape as, e.g., "[1 3 224 224]".
func (s Shape) String() string { return fmt.Sprint([]int(s)) }
