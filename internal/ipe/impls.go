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

// ConvVariants enumerates the float execution paths of ConvLayer: the
// column driver, bit-identical for any shard count (Forward delegates to
// it).
func ConvVariants() []ConvVariant {
	return []ConvVariant{
		{Name: "forward-into-par", UsesPar: true, F: func(l *ConvLayer, dst, in *tensor.Tensor, par *tensor.Par) {
			l.ForwardIntoPar(dst, in, false, par)
		}},
	}
}

// DenseVariant is one execution path of an encoded dense layer.
type DenseVariant struct {
	Name    string
	UsesPar bool
	F       func(l *DenseLayer, dst, in *tensor.Tensor, par *tensor.Par)
}

// DenseVariants is ConvVariants for DenseLayer.
func DenseVariants() []DenseVariant {
	return []DenseVariant{
		{Name: "forward-into-par", UsesPar: true, F: func(l *DenseLayer, dst, in *tensor.Tensor, par *tensor.Par) {
			l.ForwardIntoPar(dst, in, false, par)
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
// interpreter (the family's bitwise anchor; ExecuteMatrix delegates to it)
// and the compiled executor, which replays the interpreter's arithmetic
// exactly. Shard boundaries are colBlock-aligned, so the compiled path is
// bit-identical for any shard count (documented on ExecuteMatrixIntoPar).
// A single vector is the one-column case.
func MatrixVariants() []MatrixVariant {
	var s tensor.Scratch
	return []MatrixVariant{
		{Name: "matrix-into", F: func(p *Program, dst, cols []float32, pTotal int, par *tensor.Par) {
			p.ExecuteMatrixInto(dst, cols, pTotal, &s)
		}},
		{Name: "compiled-matrix-into-par", UsesPar: true, F: func(p *Program, dst, cols []float32, pTotal int, par *tensor.Par) {
			p.Compiled().ExecuteMatrixIntoPar(dst, cols, pTotal, par)
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
