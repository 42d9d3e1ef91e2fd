package baseline

import (
	"fmt"

	"repro/internal/ipe"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Factorized is the UCNN-style value-factorized executor: each output row
// is Σ_v v·Σ_{i∈S(v)} x[i] with the index sets summed raw — exactly what
// index-pair encoding starts from, with no pair merging. It is the ablation
// that isolates the contribution of the pair dictionary.
type Factorized struct {
	M, K int
	Rows []FRow
}

// FRow is one output row's value groups.
type FRow struct {
	Terms []FTerm
}

// FTerm is one value group: coefficient Value applied to the sum of x at
// Idx.
type FTerm struct {
	Code  int32
	Value float32
	Idx   []int32
}

// NewFactorized builds the factorized form of a quantized weight matrix
// (dimension 0 = rows, rest flattened).
func NewFactorized(q *quant.Quantized) *Factorized {
	m := q.Shape[0]
	k := q.NumElements() / m
	f := &Factorized{M: m, K: k, Rows: make([]FRow, m)}
	q.GroupRows(nil, func(r int, groups []quant.RowGroup) {
		scale := q.RowScale(r)
		terms := make([]FTerm, len(groups))
		for i, g := range groups {
			terms[i] = FTerm{Code: g.Code, Value: float32(g.Code) * scale, Idx: g.Idx}
		}
		f.Rows[r].Terms = terms
	})
	return f
}

// MatVec computes y = W_deq·x through the factorized form.
func (f *Factorized) MatVec(x, y []float32) {
	if len(x) < f.K || len(y) < f.M {
		panic("baseline: Factorized MatVec buffers too small")
	}
	for r := range f.Rows {
		var acc float32
		for _, t := range f.Rows[r].Terms {
			var g float32
			for _, i := range t.Idx {
				g += x[i]
			}
			acc += t.Value * g
		}
		y[r] = acc
	}
}

// MatMat applies the factorized matrix to a dense [K, P] matrix.
func (f *Factorized) MatMat(b *tensor.Tensor) *tensor.Tensor {
	if b.Shape().Rank() != 2 || b.Dim(0) != f.K {
		panic(fmt.Sprintf("baseline: Factorized MatMat wants [K=%d, P], got %v", f.K, b.Shape()))
	}
	p := b.Dim(1)
	out := tensor.New(f.M, p)
	f.MatMatIntoPar(out.Data(), b.Data(), p, tensor.NewPar(nil, 1))
	return out
}

// MatMatIntoPar is MatMat over raw row-major buffers: b holds [K, p], dst
// receives [M, p] (zeroed before accumulation). It shards over output rows
// on the given parallelism context, each shard taking its private p-float
// group work buffer from its scratch (one shard runs serially on shard 0's
// scratch). Rows are disjoint and each row's term walk is untouched, so
// results are bit-identical for any shard count.
func (f *Factorized) MatMatIntoPar(dst, b []float32, p int, par *tensor.Par) {
	if len(b) < f.K*p || len(dst) < f.M*p {
		panic("baseline: Factorized MatMatIntoPar buffers too small")
	}
	if par.Parallel() {
		par.For(f.M, func(shard, lo, hi int) {
			s := par.Scratch(shard)
			mark := s.Mark()
			f.matMatRows(dst, b, p, s.Take(p), lo, hi)
			s.Release(mark)
		})
		return
	}
	s := par.Scratch(0)
	mark := s.Mark()
	f.matMatRows(dst, b, p, s.Take(p), 0, f.M)
	s.Release(mark)
}

// matMatRows computes output rows [lo, hi), zeroing each before its value
// groups accumulate into it. group is a work buffer of at least p floats.
func (f *Factorized) matMatRows(dst, b []float32, p int, group []float32, lo, hi int) {
	bd, od := b, dst
	group = group[:p]
	for r := lo; r < hi; r++ {
		dst := od[r*p : (r+1)*p]
		for j := range dst[:p] {
			dst[j] = 0
		}
		for _, t := range f.Rows[r].Terms {
			for j := range group {
				group[j] = 0
			}
			for _, i := range t.Idx {
				src := bd[int(i)*p : int(i)*p+p]
				for j := range src {
					group[j] += src[j]
				}
			}
			for j := range dst[:p] {
				dst[j] += t.Value * group[j]
			}
		}
	}
}

// Cost returns the arithmetic cost of one MatVec.
func (f *Factorized) Cost() ipe.Cost {
	nnz := make([]int, f.M)
	terms := make([]int, f.M)
	for r, row := range f.Rows {
		terms[r] = len(row.Terms)
		for _, t := range row.Terms {
			nnz[r] += len(t.Idx)
		}
	}
	return ipe.FactorizedCost(nnz, terms)
}

// StreamSymbols returns the total index-stream length (for traffic models).
func (f *Factorized) StreamSymbols() int64 {
	var n int64
	for _, row := range f.Rows {
		for _, t := range row.Terms {
			n += int64(len(t.Idx))
		}
	}
	return n
}

// ConvFactorized is a convolution layer executed with per-group factorized
// weights over im2col columns.
type ConvFactorized struct {
	Spec  tensor.ConvSpec
	Mats  []*Factorized
	Bias  *tensor.Tensor
	Quant *quant.Quantized
}

// NewConvFactorized quantizes the OIHW weights and builds per-group
// factorized executors.
func NewConvFactorized(w, bias *tensor.Tensor, spec tensor.ConvSpec, bits int, scheme quant.Scheme) (*ConvFactorized, error) {
	return NewConvFactorizedFromQuantized(quant.Quantize(w, bits, scheme), bias, spec)
}

// NewConvFactorizedFromQuantized builds the per-group factorized executors
// of already quantized OIHW weights; the layer keeps q, which it does not
// modify.
func NewConvFactorizedFromQuantized(q *quant.Quantized, bias *tensor.Tensor, spec tensor.ConvSpec) (*ConvFactorized, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !q.Shape.Equal(spec.WeightShape()) {
		return nil, fmt.Errorf("baseline: weight shape %v != expected %v", q.Shape, spec.WeightShape())
	}
	ocg := spec.OutC / spec.Groups
	l := &ConvFactorized{Spec: spec, Bias: bias, Quant: q}
	for g := 0; g < spec.Groups; g++ {
		l.Mats = append(l.Mats, NewFactorized(q.Rows(g*ocg, (g+1)*ocg)))
	}
	return l, nil
}

// Forward runs the factorized convolution on an NCHW input.
func (l *ConvFactorized) Forward(in *tensor.Tensor) *tensor.Tensor {
	spec := l.Spec
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	out := tensor.New(n, spec.OutC, oh, ow)
	l.ForwardIntoPar(out, in, tensor.NewPar(nil, 1))
	return out
}

// ForwardIntoPar is Forward writing into a preallocated [n, outC, oh, ow]
// destination (dst must not alias in), sharded on the given parallelism
// context: im2col over matrix rows, the factorized matmul over output
// channels with per-shard group buffers. The shared col/res staging buffers
// come from shard 0's scratch, taken before each parallel region and
// released after it joins. All n batch elements run as the columns of one
// matrix (tensor.Im2colGroupColumns). Results are bit-identical for any
// shard count.
func (l *ConvFactorized) ForwardIntoPar(dst, in *tensor.Tensor, par *tensor.Par) {
	metrics.Count(metrics.KernelFactorized)
	spec := l.Spec
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	if dst.NumElements() != n*spec.OutC*oh*ow {
		panic(fmt.Sprintf("baseline: ForwardIntoPar dst %v != [%d %d %d %d]", dst.Shape(), n, spec.OutC, oh, ow))
	}
	icg := spec.InC / spec.Groups
	ocg := spec.OutC / spec.Groups
	cols := n * oh * ow
	s0 := par.Scratch(0)
	mark := s0.Mark()
	col := s0.Take(icg * spec.KH * spec.KW * cols)
	res := s0.Take(ocg * cols)
	for g := 0; g < spec.Groups; g++ {
		x := tensor.Im2colGroupColumns(col, in, g, spec, par)
		l.Mats[g].MatMatIntoPar(res, x, cols, par)
		tensor.ScatterGroupColumns(dst, res, l.Bias, g, ocg)
	}
	s0.Release(mark)
}

// Cost aggregates the per-pixel arithmetic cost across groups.
func (l *ConvFactorized) Cost() ipe.Cost {
	var total ipe.Cost
	for _, m := range l.Mats {
		c := m.Cost()
		total.Adds += c.Adds
		total.Muls += c.Muls
		total.StreamSymbols += c.StreamSymbols
	}
	return total
}
