package ipe

import (
	"fmt"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// ConvLayer is a 2-D convolution whose weights have been index-pair
// encoded. Grouped convolutions hold one program per group, each encoding
// the [outC/groups, inC/groups·kH·kW] weight slice of that group.
type ConvLayer struct {
	Spec     tensor.ConvSpec
	Programs []*Program
	Bias     *tensor.Tensor // nil or [outC]
}

// EncodeConv quantizes an OIHW weight tensor to the given bit-width and
// index-pair encodes it (per group). The returned layer computes the same
// convolution as tensor.Conv2D over the *dequantized* weights.
func EncodeConv(w, bias *tensor.Tensor, spec tensor.ConvSpec, bits int, scheme quant.Scheme, cfg Config) (*ConvLayer, Stats, error) {
	return EncodeConvQuantized(quant.Quantize(w, bits, scheme), bias, spec, cfg)
}

// EncodeConvQuantized index-pair encodes already quantized OIHW weights
// (per group); q is read, not kept.
func EncodeConvQuantized(q *quant.Quantized, bias *tensor.Tensor, spec tensor.ConvSpec, cfg Config) (*ConvLayer, Stats, error) {
	return convLayer(q, bias, spec, func(gq *quant.Quantized) (*Program, Stats, error) {
		return Encode(gq, cfg)
	})
}

// FactorizeConv builds the value-factorized form of already quantized OIHW
// weights: one empty-dictionary program per group (Factorize), run by the
// same ForwardIntoPar as an encoded layer; q is read, not kept.
func FactorizeConv(q *quant.Quantized, bias *tensor.Tensor, spec tensor.ConvSpec) (*ConvLayer, error) {
	l, _, err := convLayer(q, bias, spec, func(gq *quant.Quantized) (*Program, Stats, error) {
		return Factorize(gq), Stats{}, nil
	})
	return l, err
}

// SparseConv builds the CSR form of already quantized OIHW weights: one
// Sparse program per group, run by the same ForwardIntoPar as an encoded
// layer; q is read, not kept.
func SparseConv(q *quant.Quantized, bias *tensor.Tensor, spec tensor.ConvSpec) (*ConvLayer, error) {
	l, _, err := convLayer(q, bias, spec, func(gq *quant.Quantized) (*Program, Stats, error) {
		return Sparse(gq), Stats{}, nil
	})
	return l, err
}

// convLayer checks q against spec and builds one program per group from
// that group's [outC/groups, inC/groups·kH·kW] weight slice, summing the
// groups' statistics.
func convLayer(q *quant.Quantized, bias *tensor.Tensor, spec tensor.ConvSpec, build func(*quant.Quantized) (*Program, Stats, error)) (*ConvLayer, Stats, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if !q.Shape.Equal(spec.WeightShape()) {
		return nil, Stats{}, fmt.Errorf("ipe: weight shape %v != expected %v for spec %+v",
			q.Shape, spec.WeightShape(), spec)
	}
	layer := &ConvLayer{Spec: spec, Bias: bias}
	ocg := spec.OutC / spec.Groups
	var total Stats
	for g := 0; g < spec.Groups; g++ {
		prog, st, err := build(q.Rows(g*ocg, (g+1)*ocg))
		if err != nil {
			return nil, Stats{}, fmt.Errorf("ipe: encoding group %d: %w", g, err)
		}
		layer.Programs = append(layer.Programs, prog)
		total.Rounds += st.Rounds
		total.Merges += st.Merges
		total.DeadPruned += st.DeadPruned
		total.InputSymbols += st.InputSymbols
		total.OutputSymbols += st.OutputSymbols
	}
	return layer, total, nil
}

// Forward runs the encoded convolution on an NCHW input. The result
// matches tensor.Conv2D(in, dequantized weights, bias, spec) up to float
// accumulation order.
func (l *ConvLayer) Forward(in *tensor.Tensor) *tensor.Tensor {
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
// all n batch elements run as the columns of one matrix, so each group's
// program is walked once per call. The im2col lowering shards over matrix
// rows and the program execution over column blocks, with per-shard
// scratch arenas; once the scratches are warm, execution performs no heap
// allocations at one shard. Programs run in their compiled form
// (compile.go), which is bit-identical to the interpreter, and results are
// bit-identical for any shard count.
func (l *ConvLayer) ForwardIntoPar(dst, in *tensor.Tensor, relu bool, par *tensor.Par) {
	tensor.ConvColumns(dst, in, l.Spec, l.Bias, relu, par, l)
}

// GroupMatMulIntoPar runs group g's compiled program over a column matrix
// (tensor.ColumnKernel).
func (l *ConvLayer) GroupMatMulIntoPar(g int, dst, cols []float32, p int, par *tensor.Par) {
	l.Programs[g].Compiled().ExecuteMatrixIntoPar(dst, cols, p, par)
}

// Cost returns the total arithmetic cost of one forward pass over an input
// of spatial size h×w with batch n: the per-pixel cost (PixelCost) scaled
// by the number of output pixels.
func (l *ConvLayer) Cost(n, h, w int) Cost {
	oh, ow := l.Spec.OutDims(h, w)
	pixels := int64(n) * int64(oh) * int64(ow)
	c := l.PixelCost()
	c.Adds *= pixels
	c.Muls *= pixels
	return c
}

// PixelCost returns the layer's cost per output pixel: its programs' costs
// summed over groups, with the largest group's scratch.
func (l *ConvLayer) PixelCost() Cost {
	var total Cost
	for _, p := range l.Programs {
		c := p.Cost()
		total.Adds += c.Adds
		total.Muls += c.Muls
		total.StreamSymbols += c.StreamSymbols
		total.DictEntries += c.DictEntries
		total.ScratchWords = max(total.ScratchWords, c.ScratchWords)
	}
	return total
}

// DenseLayer is a fully connected layer with index-pair-encoded weights.
type DenseLayer struct {
	Program *Program
	Bias    *tensor.Tensor // nil or [m]
}

// EncodeDense quantizes an [m, k] weight matrix and index-pair encodes it.
func EncodeDense(w, bias *tensor.Tensor, bits int, scheme quant.Scheme, cfg Config) (*DenseLayer, Stats, error) {
	return EncodeDenseQuantized(quant.Quantize(w, bits, scheme), bias, cfg)
}

// EncodeDenseQuantized index-pair encodes an already quantized [m, k]
// weight matrix; q is read, not kept.
func EncodeDenseQuantized(q *quant.Quantized, bias *tensor.Tensor, cfg Config) (*DenseLayer, Stats, error) {
	if q.Shape.Rank() != 2 {
		return nil, Stats{}, fmt.Errorf("ipe: EncodeDense wants [m, k] weight, got %v", q.Shape)
	}
	prog, st, err := Encode(q, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	return &DenseLayer{Program: prog, Bias: bias}, st, nil
}

// Forward computes y = W_q·x + b for each row of the [n, k] input.
func (l *DenseLayer) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(in.Dim(0), l.Program.M)
	l.ForwardIntoPar(out, in, false, tensor.NewPar(nil, 1))
	return out
}

// ForwardIntoPar is Forward writing into a preallocated [n, m] destination
// (dst must not alias in), applying tensor.ReLU32 when relu is set. The n
// items run as the columns of one [k, n] matrix on the compiled executor,
// and the [m, n] result returns to rows through tensor.AddBiasRows' bias
// and ReLU rule; at n = 1 the input row is that column and the output row
// the result, so nothing is copied. The staging buffers come from shard
// 0's scratch, so a warm one-shard call allocates nothing. Results are
// bit-identical for any shard count.
func (l *DenseLayer) ForwardIntoPar(dst, in *tensor.Tensor, relu bool, par *tensor.Par) {
	n, k := in.Dim(0), in.Dim(1)
	if k != l.Program.K {
		panic(fmt.Sprintf("ipe: DenseLayer input width %d != K %d", k, l.Program.K))
	}
	m := l.Program.M
	if dst.NumElements() != n*m {
		panic(fmt.Sprintf("ipe: ForwardIntoPar dst %v != [%d %d]", dst.Shape(), n, m))
	}
	c := l.Program.Compiled()
	od, id := dst.Data()[:n*m], in.Data()[:n*k]
	if n == 1 {
		c.ExecuteMatrixIntoPar(od, id, 1, par)
	} else {
		s0 := par.Scratch(0)
		mark := s0.Mark()
		cols := s0.Take(k * n)
		res := s0.Take(m * n)
		for b := 0; b < n; b++ {
			for i, v := range id[b*k : (b+1)*k] {
				cols[i*n+b] = v
			}
		}
		c.ExecuteMatrixIntoPar(res, cols, n, par)
		for b := 0; b < n; b++ {
			row := od[b*m : (b+1)*m]
			for r := range row {
				row[r] = res[r*n+b]
			}
		}
		s0.Release(mark)
	}
	tensor.AddBiasRows(od, l.Bias, relu, m)
}

// EncodeConvShared is EncodeConv with one pair dictionary shared across
// all groups of a grouped convolution. Every group has the same reduction
// length (inC/groups·kH·kW), so the groups' index sets can be counted
// jointly (ipe.EncodeShared); for depthwise convolutions — tens to
// hundreds of tiny single-channel groups — this collapses per-group
// dictionaries into one decode-table image. For groups == 1 it is
// identical to EncodeConv.
func EncodeConvShared(w, bias *tensor.Tensor, spec tensor.ConvSpec, bits int, scheme quant.Scheme, cfg Config) (*ConvLayer, Stats, error) {
	spec = spec.Normalize()
	if spec.Groups <= 1 {
		return EncodeConv(w, bias, spec, bits, scheme, cfg)
	}
	if err := spec.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if !w.Shape().Equal(spec.WeightShape()) {
		return nil, Stats{}, fmt.Errorf("ipe: weight shape %v != expected %v for spec %+v",
			w.Shape(), spec.WeightShape(), spec)
	}
	q := quant.Quantize(w, bits, scheme)
	ocg := spec.OutC / spec.Groups
	qs := make([]*quant.Quantized, spec.Groups)
	for g := range qs {
		qs[g] = q.Rows(g*ocg, (g+1)*ocg)
	}
	progs, stats, err := EncodeShared(qs, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	return &ConvLayer{Spec: spec, Programs: progs, Bias: bias}, stats, nil
}
