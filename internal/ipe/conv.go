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
	Quant    *quant.Quantized
}

// EncodeConv quantizes an OIHW weight tensor to the given bit-width and
// index-pair encodes it (per group). The returned layer computes the same
// convolution as tensor.Conv2D over the *dequantized* weights.
func EncodeConv(w, bias *tensor.Tensor, spec tensor.ConvSpec, bits int, scheme quant.Scheme, cfg Config) (*ConvLayer, Stats, error) {
	return EncodeConvQuantized(quant.Quantize(w, bits, scheme), bias, spec, cfg)
}

// EncodeConvQuantized index-pair encodes already quantized OIHW weights
// (per group); the layer keeps q, which it does not modify.
func EncodeConvQuantized(q *quant.Quantized, bias *tensor.Tensor, spec tensor.ConvSpec, cfg Config) (*ConvLayer, Stats, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if !q.Shape.Equal(spec.WeightShape()) {
		return nil, Stats{}, fmt.Errorf("ipe: weight shape %v != expected %v for spec %+v",
			q.Shape, spec.WeightShape(), spec)
	}
	layer := &ConvLayer{Spec: spec, Bias: bias, Quant: q}
	ocg := spec.OutC / spec.Groups
	var total Stats
	for g := 0; g < spec.Groups; g++ {
		prog, st, err := Encode(q.Rows(g*ocg, (g+1)*ocg), cfg)
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
	l.ForwardIntoPar(out, in, tensor.NewPar(nil, 1))
	return out
}

// ForwardIntoPar is Forward writing into a preallocated [n, outC, oh, ow]
// destination (dst must not alias in), sharded on the given parallelism
// context: the im2col lowering shards over matrix rows and the program
// execution over column blocks, with per-shard scratch arenas. The shared
// col/res staging buffers come from shard 0's scratch — taken before each
// parallel region starts and released after it joins, so no two goroutines
// ever use one Scratch concurrently; once the scratches are warm, execution
// performs no heap allocations at one shard. Programs run in their compiled
// form (compile.go), which is bit-identical to the interpreter, and results
// are bit-identical for any shard count.
func (l *ConvLayer) ForwardIntoPar(dst, in *tensor.Tensor, par *tensor.Par) {
	spec := l.Spec
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	if dst.NumElements() != n*spec.OutC*oh*ow {
		panic(fmt.Sprintf("ipe: ForwardIntoPar dst %v != [%d %d %d %d]", dst.Shape(), n, spec.OutC, oh, ow))
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
			l.Programs[g].Compiled().ExecuteMatrixIntoPar(res, cols, oh*ow, par) // [ocg, oh*ow]
			l.addBias(od, res, b, g, ocg, oh*ow)
		}
	}
	s0.Release(mark)
}

// addBias copies group g's [ocg, hw] result block into the output tensor
// of batch element b, adding the per-channel bias.
func (l *ConvLayer) addBias(od, res []float32, b, g, ocg, hw int) {
	spec := l.Spec
	for oc := 0; oc < ocg; oc++ {
		dst := od[(b*spec.OutC+g*ocg+oc)*hw : (b*spec.OutC+g*ocg+oc)*hw+hw]
		src := res[oc*hw : (oc+1)*hw]
		var bv float32
		if l.Bias != nil {
			bv = l.Bias.Data()[g*ocg+oc]
		}
		for i, v := range src {
			dst[i] = v + bv
		}
	}
}

// Cost returns the total arithmetic cost of one forward pass over an input
// of spatial size h×w with batch n: the per-pixel program cost scaled by
// the number of output pixels, summed over groups.
func (l *ConvLayer) Cost(n, h, w int) Cost {
	oh, ow := l.Spec.OutDims(h, w)
	pixels := int64(n) * int64(oh) * int64(ow)
	var total Cost
	for _, p := range l.Programs {
		c := p.Cost()
		total.Adds += c.Adds * pixels
		total.Muls += c.Muls * pixels
		total.StreamSymbols += c.StreamSymbols
		total.DictEntries += c.DictEntries
		if c.ScratchWords > total.ScratchWords {
			total.ScratchWords = c.ScratchWords
		}
	}
	return total
}

// DenseLayer is a fully connected layer with index-pair-encoded weights.
type DenseLayer struct {
	Program *Program
	Bias    *tensor.Tensor // nil or [m]
	Quant   *quant.Quantized
}

// EncodeDense quantizes an [m, k] weight matrix and index-pair encodes it.
func EncodeDense(w, bias *tensor.Tensor, bits int, scheme quant.Scheme, cfg Config) (*DenseLayer, Stats, error) {
	return EncodeDenseQuantized(quant.Quantize(w, bits, scheme), bias, cfg)
}

// EncodeDenseQuantized index-pair encodes an already quantized [m, k]
// weight matrix; the layer keeps q, which it does not modify.
func EncodeDenseQuantized(q *quant.Quantized, bias *tensor.Tensor, cfg Config) (*DenseLayer, Stats, error) {
	if q.Shape.Rank() != 2 {
		return nil, Stats{}, fmt.Errorf("ipe: EncodeDense wants [m, k] weight, got %v", q.Shape)
	}
	prog, st, err := Encode(q, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	return &DenseLayer{Program: prog, Bias: bias, Quant: q}, st, nil
}

// Forward computes y = W_q·x + b for each row of the [n, k] input.
func (l *DenseLayer) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(in.Dim(0), l.Program.M)
	var s tensor.Scratch
	l.ForwardInto(out, in, &s)
	return out
}

// ForwardInto is Forward writing into a preallocated [n, m] destination,
// drawing the (slot-compacted, compiled-form) partial-sum scratchpad from
// the caller's Scratch. dst must not alias in.
func (l *DenseLayer) ForwardInto(dst, in *tensor.Tensor, s *tensor.Scratch) {
	n, k := in.Dim(0), in.Dim(1)
	if k != l.Program.K {
		panic(fmt.Sprintf("ipe: DenseLayer input width %d != K %d", k, l.Program.K))
	}
	if dst.NumElements() != n*l.Program.M {
		panic(fmt.Sprintf("ipe: ForwardInto dst %v != [%d %d]", dst.Shape(), n, l.Program.M))
	}
	c := l.Program.Compiled()
	m := l.Program.M
	mark := s.Mark()
	od := dst.Data()
	id := in.Data()
	scratch := s.Take(c.ScratchLen())
	for b := 0; b < n; b++ {
		c.ExecuteScratch(id[b*k:(b+1)*k], od[b*m:(b+1)*m], scratch)
	}
	if l.Bias != nil {
		bd := l.Bias.Data()
		for b := 0; b < n; b++ {
			for i := 0; i < l.Program.M; i++ {
				od[b*l.Program.M+i] += bd[i]
			}
		}
	}
	s.Release(mark)
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
	return &ConvLayer{Spec: spec, Programs: progs, Bias: bias, Quant: q}, stats, nil
}
