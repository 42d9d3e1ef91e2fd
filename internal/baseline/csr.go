// Package baseline implements the comparison points of the evaluation that
// are not index-pair programs: CSR sparse execution (wins only on zero
// weights) and Winograd F(2x2,3x3) dense convolution. The UCNN-style
// value-factorized baseline (one multiply per distinct weight value, but no
// index-pair merging) is an IPE program with an empty dictionary, built by
// ipe.Factorize and run on the IPE executors; the delta between it and an
// encoded program is the paper's contribution.
package baseline

import (
	"fmt"

	"repro/internal/ipe"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// CSR is a compressed-sparse-row matrix over float32 values.
type CSR struct {
	M, K   int
	RowPtr []int32 // length M+1
	Col    []int32 // length nnz
	Val    []float32
}

// NewCSR compresses a dense [m, k] matrix, dropping exact zeros.
func NewCSR(w *tensor.Tensor) *CSR {
	if w.Shape().Rank() != 2 {
		panic(fmt.Sprintf("baseline: NewCSR wants [m,k], got %v", w.Shape()))
	}
	m, k := w.Dim(0), w.Dim(1)
	d := w.Data()
	// Count first and allocate exactly: Col and Val stay resident for the
	// life of the plan, and append's growth would leave up to 2x slack.
	nnz := 0
	for _, v := range d[:m*k] {
		if v != 0 {
			nnz++
		}
	}
	c := &CSR{M: m, K: k, RowPtr: make([]int32, m+1), Col: make([]int32, 0, nnz), Val: make([]float32, 0, nnz)}
	for r := 0; r < m; r++ {
		for i := 0; i < k; i++ {
			if v := d[r*k+i]; v != 0 {
				c.Col = append(c.Col, int32(i))
				c.Val = append(c.Val, v)
			}
		}
		c.RowPtr[r+1] = int32(len(c.Col))
	}
	return c
}

// NewCSRFromQuantized compresses the dequantized values of q, dropping
// zero codes, so the CSR baseline competes on the same quantized weights
// the encoded kernels use.
func NewCSRFromQuantized(q *quant.Quantized) *CSR {
	return NewCSR(q.Dequantize().Reshape(q.Shape[0], q.NumElements()/q.Shape[0]))
}

// NNZ returns the stored nonzero count.
func (c *CSR) NNZ() int { return len(c.Val) }

// Density returns nnz/(m·k).
func (c *CSR) Density() float64 {
	if c.M*c.K == 0 {
		return 0
	}
	return float64(c.NNZ()) / float64(c.M*c.K)
}

// MatVec computes y = A·x.
func (c *CSR) MatVec(x, y []float32) {
	if len(x) < c.K || len(y) < c.M {
		panic("baseline: CSR MatVec buffers too small")
	}
	for r := 0; r < c.M; r++ {
		var acc float32
		for i := c.RowPtr[r]; i < c.RowPtr[r+1]; i++ {
			acc += c.Val[i] * x[c.Col[i]]
		}
		y[r] = acc
	}
}

// MatMat computes A·B for a dense [K, P] matrix B, returning [M, P].
func (c *CSR) MatMat(b *tensor.Tensor) *tensor.Tensor {
	if b.Shape().Rank() != 2 || b.Dim(0) != c.K {
		panic(fmt.Sprintf("baseline: CSR MatMat wants [K=%d, P], got %v", c.K, b.Shape()))
	}
	p := b.Dim(1)
	out := tensor.New(c.M, p)
	c.MatMatIntoPar(out.Data(), b.Data(), p, nil)
	return out
}

// MatMatIntoPar is MatMat over raw row-major buffers: b holds [K, p], dst
// receives [M, p] (zeroed before accumulation, so it need not be clean),
// sharded over output rows on the given parallelism context (nil par or one
// shard runs serially). Rows are disjoint and each row's accumulation walk
// is untouched, so results are bit-identical for any shard count.
func (c *CSR) MatMatIntoPar(dst, b []float32, p int, par *tensor.Par) {
	if len(b) < c.K*p || len(dst) < c.M*p {
		panic("baseline: CSR MatMatIntoPar buffers too small")
	}
	if par.Parallel() {
		par.For(c.M, func(shard, lo, hi int) {
			c.matMatRows(dst, b, p, lo, hi)
		})
		return
	}
	c.matMatRows(dst, b, p, 0, c.M)
}

// matMatRows computes output rows [lo, hi), zeroing each before its
// nonzeros accumulate into it.
func (c *CSR) matMatRows(dst, b []float32, p, lo, hi int) {
	bd, od := b, dst
	for r := lo; r < hi; r++ {
		dst := od[r*p : (r+1)*p]
		for j := range dst {
			dst[j] = 0
		}
		for i := c.RowPtr[r]; i < c.RowPtr[r+1]; i++ {
			v := c.Val[i]
			src := bd[int(c.Col[i])*p : int(c.Col[i])*p+p]
			for j := range src {
				dst[j] += v * src[j]
			}
		}
	}
}

// Cost returns the arithmetic cost of one MatVec.
func (c *CSR) Cost() ipe.Cost { return ipe.SparseCost(int64(c.NNZ())) }

// ConvCSR is a convolution layer executed with per-group CSR weights over
// im2col columns.
type ConvCSR struct {
	Spec  tensor.ConvSpec
	Mats  []*CSR // one per group
	Bias  *tensor.Tensor
	Quant *quant.Quantized
}

// NewConvCSR quantizes the OIHW weights and builds the per-group CSR
// matrices.
func NewConvCSR(w, bias *tensor.Tensor, spec tensor.ConvSpec, bits int, scheme quant.Scheme) (*ConvCSR, error) {
	return NewConvCSRFromQuantized(quant.Quantize(w, bits, scheme), bias, spec)
}

// NewConvCSRFromQuantized builds the per-group CSR matrices of already
// quantized OIHW weights; the layer keeps q, which it does not modify.
func NewConvCSRFromQuantized(q *quant.Quantized, bias *tensor.Tensor, spec tensor.ConvSpec) (*ConvCSR, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !q.Shape.Equal(spec.WeightShape()) {
		return nil, fmt.Errorf("baseline: weight shape %v != expected %v", q.Shape, spec.WeightShape())
	}
	deq := q.Dequantize()
	icg := spec.InC / spec.Groups
	ocg := spec.OutC / spec.Groups
	kSize := icg * spec.KH * spec.KW
	l := &ConvCSR{Spec: spec, Bias: bias, Quant: q}
	dd := deq.Data()
	for g := 0; g < spec.Groups; g++ {
		sub := tensor.From(dd[g*ocg*kSize:(g+1)*ocg*kSize], ocg, kSize)
		l.Mats = append(l.Mats, NewCSR(sub))
	}
	return l, nil
}

// Forward runs the sparse convolution on an NCHW input.
func (l *ConvCSR) Forward(in *tensor.Tensor) *tensor.Tensor {
	spec := l.Spec
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	out := tensor.New(n, spec.OutC, oh, ow)
	l.ForwardIntoPar(out, in, false, tensor.NewPar(nil, 1))
	return out
}

// ForwardIntoPar is Forward writing into a preallocated [n, outC, oh, ow]
// destination (dst must not alias in), applying tensor.ReLU32 to every
// output when relu is set, on the shared conv driver tensor.ConvColumns:
// im2col shards over matrix rows, the sparse matmul over output channels,
// and all n batch elements run as the columns of one matrix. Results are
// bit-identical for any shard count.
func (l *ConvCSR) ForwardIntoPar(dst, in *tensor.Tensor, relu bool, par *tensor.Par) {
	metrics.Count(metrics.KernelCSR)
	tensor.ConvColumns(dst, in, l.Spec, l.Bias, relu, par, l)
}

// GroupMatMulIntoPar multiplies group g's CSR matrix into a column matrix
// (tensor.ColumnKernel).
func (l *ConvCSR) GroupMatMulIntoPar(g int, dst, cols []float32, p int, par *tensor.Par) {
	l.Mats[g].MatMatIntoPar(dst, cols, p, par)
}

// NNZ returns the total stored nonzeros across groups.
func (l *ConvCSR) NNZ() int64 {
	var n int64
	for _, m := range l.Mats {
		n += int64(m.NNZ())
	}
	return n
}
