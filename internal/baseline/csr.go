// Package baseline implements the comparison points of the evaluation:
// CSR sparse execution (wins only on zero weights) and UCNN-style
// value-factorized execution (one multiply per distinct weight value, but
// no index-pair merging). The delta between the factorized baseline and
// internal/ipe is the paper's contribution.
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
	l.ForwardIntoPar(out, in, tensor.NewPar(nil, 1))
	return out
}

// ForwardIntoPar is Forward writing into a preallocated [n, outC, oh, ow]
// destination (dst must not alias in), sharded on the given parallelism
// context: im2col over matrix rows, the sparse matmul over output channels.
// The shared col/res staging buffers come from shard 0's scratch, taken
// before each parallel region and released after it joins. Results are
// bit-identical for any shard count.
func (l *ConvCSR) ForwardIntoPar(dst, in *tensor.Tensor, par *tensor.Par) {
	metrics.Count(metrics.KernelCSR)
	spec := l.Spec
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	if dst.NumElements() != n*spec.OutC*oh*ow {
		panic(fmt.Sprintf("baseline: ForwardIntoPar dst %v != [%d %d %d %d]", dst.Shape(), n, spec.OutC, oh, ow))
	}
	icg := spec.InC / spec.Groups
	ocg := spec.OutC / spec.Groups
	od := dst.Data()
	s0 := par.Scratch(0)
	mark := s0.Mark()
	col := s0.Take(icg * spec.KH * spec.KW * oh * ow)
	res := s0.Take(ocg * oh * ow)
	for b := 0; b < n; b++ {
		for g := 0; g < spec.Groups; g++ {
			cols := tensor.Im2colGroupColumns(col, in, b, g, spec, par)
			l.Mats[g].MatMatIntoPar(res, cols, oh*ow, par)
			addConvBias(od, res, l.Bias, spec.OutC, b, g, ocg, oh*ow)
		}
	}
	s0.Release(mark)
}

// addConvBias copies group g's [ocg, hw] result block into the output of
// batch element b, adding the per-channel bias.
func addConvBias(od, res []float32, bias *tensor.Tensor, outC, b, g, ocg, hw int) {
	for oc := 0; oc < ocg; oc++ {
		dst := od[(b*outC+g*ocg+oc)*hw : (b*outC+g*ocg+oc)*hw+hw]
		var bv float32
		if bias != nil {
			bv = bias.Data()[g*ocg+oc]
		}
		src := res[oc*hw : (oc+1)*hw]
		for i, v := range src {
			dst[i] = v + bv
		}
	}
}

// NNZ returns the total stored nonzeros across groups.
func (l *ConvCSR) NNZ() int64 {
	var n int64
	for _, m := range l.Mats {
		n += int64(m.NNZ())
	}
	return n
}
