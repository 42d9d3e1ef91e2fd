package tensor

import (
	"fmt"

	"repro/internal/metrics"
)

// Gemm computes C = A·B for row-major matrices, where A is m×k, B is k×n and
// C is m×n. C is overwritten. It is the reference (naive, cache-blocked)
// matrix multiply: the GEMM of the Conv2DIm2col reference lowering and of
// the tensor-gemm conformance family.
func Gemm(a, b, c []float32, m, k, n int) {
	metrics.Count(metrics.KernelGEMM)
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("tensor: Gemm buffer too small for m=%d k=%d n=%d", m, k, n))
	}
	for i := range c[:m*n] {
		c[i] = 0
	}
	const bs = 64 // block size tuned for L1-resident tiles of float32
	for i0 := 0; i0 < m; i0 += bs {
		iMax := min(i0+bs, m)
		for p0 := 0; p0 < k; p0 += bs {
			pMax := min(p0+bs, k)
			for j0 := 0; j0 < n; j0 += bs {
				jMax := min(j0+bs, n)
				for i := i0; i < iMax; i++ {
					arow := a[i*k : i*k+k]
					crow := c[i*n : i*n+n]
					for p := p0; p < pMax; p++ {
						av := arow[p]
						if av == 0 {
							continue
						}
						brow := b[p*n : p*n+n]
						for j := j0; j < jMax; j++ {
							crow[j] += av * brow[j]
						}
					}
				}
			}
		}
	}
}

// MatVec computes y = A·x for a row-major m×k matrix. y is overwritten.
func MatVec(a, x, y []float32, m, k int) {
	if len(a) < m*k || len(x) < k || len(y) < m {
		panic("tensor: MatVec buffer too small")
	}
	for i := 0; i < m; i++ {
		row := a[i*k : i*k+k]
		var s float32
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// Transpose returns the transpose of a rank-2 tensor as a new tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Shape().Rank() != 2 {
		panic("tensor: Transpose requires rank-2 tensor")
	}
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	ad, od := a.Data(), out.Data()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			od[j*m+i] = ad[i*n+j]
		}
	}
	return out
}
