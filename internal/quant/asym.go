package quant

import (
	"math"

	"repro/internal/tensor"
)

// Asymmetric (affine) activation quantization. Post-ReLU activations are
// non-negative, so a symmetric quantizer wastes half its codes; an
// asymmetric quantizer real = scale·(q − zeroPoint) uses the full unsigned
// range. Weights stay symmetric (zero code must be exactly zero for
// pruning and index-pair encoding); asymmetric codes are for the
// activation side, where the integer executor folds the zero-point into a
// per-row correction term (see ipe.ExecuteQuantizedAsym).

// CalibrateAsym computes affine parameters covering [min, max] of the
// calibration tensors with 2^bits unsigned levels.
func CalibrateAsym(samples []*tensor.Tensor, bits int) Params {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range samples {
		for _, v := range s.Data() {
			f := float64(v)
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
	}
	if math.IsInf(lo, 1) { // no samples
		return Params{Scale: 1}
	}
	if lo > 0 {
		lo = 0 // keep zero exactly representable
	}
	if hi < 0 {
		hi = 0
	}
	levels := float64(int64(1)<<bits) - 1
	scale := (hi - lo) / levels
	if scale == 0 {
		scale = 1
	}
	zp := int32(math.RoundToEven(-lo / scale))
	return Params{Scale: float32(scale), ZeroPoint: zp}
}

// QuantizeAsym converts activations to unsigned b-bit codes under the
// affine params: q = clamp(round(x/scale) + zeroPoint, 0, 2^bits−1).
func QuantizeAsym(x []float32, p Params, bits int) []int32 {
	qmax := int32(1<<bits) - 1
	inv := float64(0)
	if p.Scale != 0 {
		inv = 1 / float64(p.Scale)
	}
	codes := make([]int32, len(x))
	for i, v := range x {
		c := int32(math.RoundToEven(float64(v)*inv)) + p.ZeroPoint
		if c < 0 {
			c = 0
		}
		if c > qmax {
			c = qmax
		}
		codes[i] = c
	}
	return codes
}
