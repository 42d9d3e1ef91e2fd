package baseline

import (
	"repro/internal/tensor"
)

// Registration shims for the conformance harness (internal/conformance),
// plus the dense decoders the harness's whole-graph oracle needs to
// reconstruct the effective (dequantized) weights of a compiled layer.

// Dense reconstructs the dense [M, K] matrix a CSR stores. Dropped entries
// come back as exact zeros, so the reconstruction equals the matrix the CSR
// was built from whenever that matrix's zeros were exact (true for
// quantized weights, where the zero code dequantizes to 0).
func (c *CSR) Dense() *tensor.Tensor {
	out := tensor.New(c.M, c.K)
	d := out.Data()
	for r := 0; r < c.M; r++ {
		for i := c.RowPtr[r]; i < c.RowPtr[r+1]; i++ {
			d[r*c.K+int(c.Col[i])] = c.Val[i]
		}
	}
	return out
}

// CSRConvVariant is one execution path of the CSR convolution layer.
type CSRConvVariant struct {
	Name    string
	UsesPar bool
	F       func(l *ConvCSR, dst, in *tensor.Tensor, par *tensor.Par)
}

// CSRConvVariants enumerates ConvCSR's float paths (bit-identical for any
// shard count, documented on ForwardIntoPar).
func CSRConvVariants() []CSRConvVariant {
	return []CSRConvVariant{
		{Name: "forward", F: func(l *ConvCSR, dst, in *tensor.Tensor, par *tensor.Par) {
			copy(dst.Data(), l.Forward(in).Data())
		}},
		{Name: "forward-into-par", UsesPar: true, F: func(l *ConvCSR, dst, in *tensor.Tensor, par *tensor.Par) {
			l.ForwardIntoPar(dst, in, false, par)
		}},
	}
}

// WinogradVariant is one execution path of the Winograd convolution layer.
type WinogradVariant struct {
	Name    string
	UsesPar bool
	F       func(l *ConvWinograd, dst, in *tensor.Tensor, par *tensor.Par)
}

// WinogradVariants enumerates ConvWinograd's paths (bit-identical for any
// shard count, documented on ForwardIntoPar).
func WinogradVariants() []WinogradVariant {
	return []WinogradVariant{
		{Name: "forward", F: func(l *ConvWinograd, dst, in *tensor.Tensor, par *tensor.Par) {
			copy(dst.Data(), l.Forward(in).Data())
		}},
		{Name: "forward-into-par", UsesPar: true, F: func(l *ConvWinograd, dst, in *tensor.Tensor, par *tensor.Par) {
			l.ForwardIntoPar(dst, in, par)
		}},
	}
}

// MatVariant is one execution path of a sparse [M, K]·[K, P] matrix
// product writing into a raw [M, P] buffer.
type MatVariant struct {
	Name    string
	UsesPar bool
	F       func(dst, b []float32, p int, par *tensor.Par)
}

// CSRMatVariants enumerates the matrix-product paths of one CSR instance.
// The row-vector MatVec walks the same nonzeros in the same order, so all
// variants are one bit-identical family.
func CSRMatVariants(c *CSR) []MatVariant {
	return []MatVariant{
		{Name: "matmat", F: func(dst, b []float32, p int, par *tensor.Par) {
			copy(dst, c.MatMat(tensor.From(b, c.K, p)).Data())
		}},
		{Name: "matmat-into-par", UsesPar: true, F: func(dst, b []float32, p int, par *tensor.Par) {
			c.MatMatIntoPar(dst, b, p, par)
		}},
	}
}
