package ipe

import (
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Registration shims for the conformance harness (internal/conformance):
// every execution path of an encoded program or layer, enumerated so the
// differential driver can run them all without knowing this package's
// internals. Variants inside one enumeration entry share an accumulation
// order and must be bit-identical; the harness enforces that.

// RowScale exposes the per-row weight scale the integer requantization path
// uses (Value = Scale·Code on every term of the row), so an external
// reference can replicate the float requantization bit for bit.
func (p *Program) RowScale(r int) float32 { return p.rowScale(r) }

// ConvVariant is one execution path of an encoded convolution layer.
type ConvVariant struct {
	Name    string
	UsesPar bool
	F       func(l *ConvLayer, dst, in *tensor.Tensor, par *tensor.Par)
}

// ConvVariants enumerates the float execution paths of ConvLayer. All of
// them are bit-identical for any shard count (documented on
// ForwardIntoPar).
func ConvVariants() []ConvVariant {
	return []ConvVariant{
		{Name: "forward", F: func(l *ConvLayer, dst, in *tensor.Tensor, par *tensor.Par) {
			copy(dst.Data(), l.Forward(in).Data())
		}},
		{Name: "forward-into-par", UsesPar: true, F: func(l *ConvLayer, dst, in *tensor.Tensor, par *tensor.Par) {
			l.ForwardIntoPar(dst, in, false, par)
		}},
	}
}

// DenseVariant is one execution path of an encoded dense layer.
type DenseVariant struct {
	Name string
	F    func(l *DenseLayer, dst, in *tensor.Tensor)
}

// DenseVariants enumerates the float execution paths of DenseLayer
// (bit-identical: Forward delegates to ForwardInto).
func DenseVariants() []DenseVariant {
	var s tensor.Scratch
	return []DenseVariant{
		{Name: "forward", F: func(l *DenseLayer, dst, in *tensor.Tensor) {
			copy(dst.Data(), l.Forward(in).Data())
		}},
		{Name: "forward-into", F: func(l *DenseLayer, dst, in *tensor.Tensor) {
			l.ForwardInto(dst, in, false, &s)
		}},
	}
}

// VectorVariant is one execution path of Program evaluation on a single
// input vector.
type VectorVariant struct {
	Name string
	F    func(p *Program, x, y []float32)
}

// VectorVariants enumerates the single-vector float paths: the interpreter
// (Execute delegates to ExecuteScratch) and the compiled executors, which
// must all be bit-identical. The scratch buffers are hoisted into the
// variant closures and grown on demand, so repeated invocations measure
// the kernel rather than the allocator.
func VectorVariants() []VectorVariant {
	var scratch []float32
	var compiledScratch []float32
	return []VectorVariant{
		{Name: "execute", F: func(p *Program, x, y []float32) { p.Execute(x, y) }},
		{Name: "execute-scratch", F: func(p *Program, x, y []float32) {
			if cap(scratch) < p.NumSymbols() {
				scratch = make([]float32, p.NumSymbols())
			}
			p.ExecuteScratch(x, y, scratch[:p.NumSymbols()])
		}},
		{Name: "compiled", F: func(p *Program, x, y []float32) { p.Compiled().Execute(x, y) }},
		{Name: "compiled-scratch", F: func(p *Program, x, y []float32) {
			c := p.Compiled()
			if cap(compiledScratch) < c.ScratchLen() {
				compiledScratch = make([]float32, c.ScratchLen())
			}
			c.ExecuteScratch(x, y, compiledScratch[:c.ScratchLen()])
		}},
	}
}

// MatrixVariant is one execution path of Program evaluation on a [K, P]
// column matrix, writing the [M, P] result into dst.
type MatrixVariant struct {
	Name    string
	UsesPar bool
	F       func(p *Program, dst, cols []float32, pTotal int, par *tensor.Par)
}

// MatrixVariants enumerates the column-blocked matrix paths: the
// interpreter (the family's bitwise anchor) and the compiled executor,
// which replays the interpreter's arithmetic exactly. Shard boundaries are
// colBlock-aligned, so the compiled path is bit-identical for any shard
// count (documented on ExecuteMatrixIntoPar).
func MatrixVariants() []MatrixVariant {
	var s tensor.Scratch
	return []MatrixVariant{
		{Name: "matrix", F: func(p *Program, dst, cols []float32, pTotal int, par *tensor.Par) {
			copy(dst, p.ExecuteMatrix(tensor.From(cols, p.K, pTotal)).Data())
		}},
		{Name: "matrix-into", F: func(p *Program, dst, cols []float32, pTotal int, par *tensor.Par) {
			p.ExecuteMatrixInto(dst, cols, pTotal, &s)
		}},
		{Name: "compiled-matrix-into-par", UsesPar: true, F: func(p *Program, dst, cols []float32, pTotal int, par *tensor.Par) {
			p.Compiled().ExecuteMatrixIntoPar(dst, cols, pTotal, par)
		}},
	}
}

// IntVariant is one execution path of exact integer program evaluation.
type IntVariant struct {
	Name string
	F    func(p *Program, x []int32, y []int64)
}

// IntVariants enumerates the integer paths, interpreted and compiled
// (exactly equal by int associativity; the harness checks them bitwise
// against a straight-loop reference). Scratch buffers are reused across
// invocations.
func IntVariants() []IntVariant {
	var vals []int64
	var compiledVals []int64
	return []IntVariant{
		{Name: "int", F: func(p *Program, x []int32, y []int64) { p.ExecuteInt(x, y) }},
		{Name: "int-scratch", F: func(p *Program, x []int32, y []int64) {
			if cap(vals) < p.NumSymbols() {
				vals = make([]int64, p.NumSymbols())
			}
			p.ExecuteIntScratch(x, y, vals[:p.NumSymbols()])
		}},
		{Name: "compiled-int", F: func(p *Program, x []int32, y []int64) { p.Compiled().ExecuteInt(x, y) }},
		{Name: "compiled-int-scratch", F: func(p *Program, x []int32, y []int64) {
			c := p.Compiled()
			if cap(compiledVals) < c.ScratchLen() {
				compiledVals = make([]int64, c.ScratchLen())
			}
			c.ExecuteIntScratch(x, y, compiledVals[:c.ScratchLen()])
		}},
	}
}

// EmptyDictBuilder builds one of the evaluation's empty-dictionary
// baselines from quantized weights, as a matrix program and as a conv
// layer (one program per group).
type EmptyDictBuilder struct {
	Name   string
	Matrix func(q *quant.Quantized) *Program
	Conv   func(q *quant.Quantized, bias *tensor.Tensor, spec tensor.ConvSpec) (*ConvLayer, error)
}

// EmptyDictBuilders returns the CSR (Sparse) and value-factorized
// (Factorize) builders. Their programs run on the IPE executors, so the
// harness drives them through the same variant enumerations as an encoded
// program, one family per builder.
func EmptyDictBuilders() []EmptyDictBuilder {
	return []EmptyDictBuilder{
		{Name: "csr", Matrix: Sparse, Conv: SparseConv},
		{Name: "factorized", Matrix: Factorize, Conv: FactorizeConv},
	}
}

// ConvEncoders enumerates the ways a convolution can be encoded into a
// ConvLayer; each encoder yields its own program (and thus its own
// accumulation order), so the harness treats each as a separate family.
type ConvEncoder struct {
	Name string
	F    func(w, bias *tensor.Tensor, spec tensor.ConvSpec, bits int, scheme quant.Scheme, cfg Config) (*ConvLayer, Stats, error)
}

// ConvEncoders returns the per-group and shared-dictionary encoders.
func ConvEncoders() []ConvEncoder {
	return []ConvEncoder{
		{Name: "ipe", F: EncodeConv},
		{Name: "ipe-shared", F: EncodeConvShared},
	}
}
