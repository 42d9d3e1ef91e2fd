package runtime

import (
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Registration shims for the conformance harness (internal/conformance):
// the forced-implementation space the differential driver compiles every
// generated graph under, and the effective weights a compiled plan actually
// computes with (quantized implementations run on dequantized weights, so
// an external oracle must too).

// ForceableImpls enumerates the implementations the conformance driver
// forces a whole plan onto. ImplAuto is covered implicitly: it always picks
// one of these.
func ForceableImpls() []Impl {
	return []Impl{ImplDense, ImplCSR, ImplFactorized, ImplIPE, ImplWinograd}
}

// EffectiveWeights returns, per node ID, the weight tensor each compiled
// conv/dense operator effectively computes with, for the operators whose
// chosen implementation does not use the node's own float weights: the
// quantized implementations (CSR, factorized, IPE) compute the convolution
// of the *dequantized* weights, re-quantized here per channel at the plan's
// Bits exactly as compilation quantized them. Operators running on their
// float weights (dense, Winograd, and every non-conv/dense op) are absent
// from the map. An oracle that evaluates Plan.Graph with these overrides
// predicts the executor's output up to float accumulation order. The error
// is nil for every plan Compile returns.
func (p *Plan) EffectiveWeights() (map[int]*tensor.Tensor, error) {
	eff := make(map[int]*tensor.Tensor)
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.progConv == nil && op.progDense == nil {
			continue
		}
		eff[op.Node.ID] = quant.Quantize(op.Node.Param("weight"), p.Opts.Bits, quant.PerChannel).Dequantize()
	}
	return eff, nil
}
