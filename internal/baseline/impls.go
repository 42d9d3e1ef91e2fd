package baseline

import (
	"repro/internal/tensor"
)

// Registration shim for the conformance harness (internal/conformance).

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
