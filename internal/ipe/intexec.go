package ipe

import (
	"fmt"
	"math"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Integer inference path: activations are quantized to b-bit codes, the
// whole program evaluates in integer arithmetic (exactly — see
// ExecuteInt), and the result is requantized with the product of the
// activation and per-row weight scales. This is how a fixed-point
// accelerator would run the encoded stream; the float path exists for
// verification and CPU deployment.

// RowScale recovers the weight scale of row r from its first term
// (Value = Scale·Code, so Scale = Value/Code). Rows with no terms have an
// arbitrary scale; they always produce zero.
func (p *Program) RowScale(r int) float32 {
	for _, t := range p.Rows[r].Terms {
		if t.Code != 0 {
			return t.Value / float32(t.Code)
		}
	}
	return 0
}

// RowScales precomputes every row's weight scale (see RowScale) so the
// integer forward paths requantize with one multiply per output instead of
// re-walking the row's terms.
func (p *Program) RowScales() []float32 {
	scales := make([]float32, p.M)
	for r := range scales {
		scales[r] = p.RowScale(r)
	}
	return scales
}

// QuantizeActivations converts a float activation slice to integer codes
// under the given params (symmetric: zero point 0), clamping to the int8
// range when bits <= 8.
func QuantizeActivations(x []float32, params quant.Params, bits int) []int32 {
	qmax := int32(1<<(bits-1)) - 1
	if qmax == 0 {
		qmax = 1
	}
	inv := float64(0)
	if params.Scale != 0 {
		inv = 1 / float64(params.Scale)
	}
	codes := make([]int32, len(x))
	for i, v := range x {
		c := int32(math.RoundToEven(float64(v) * inv))
		if c > qmax {
			c = qmax
		}
		if c < -qmax {
			c = -qmax
		}
		codes[i] = c
	}
	return codes
}

// ExecuteQuantized runs the full integer path on one input vector: x is
// quantized with xParams at xBits, evaluated exactly in int64, and
// requantized into y. The result approximates the float path within the
// activation quantization error.
func (p *Program) ExecuteQuantized(x []float32, y []float32, xParams quant.Params, xBits int) {
	if len(x) < p.K || len(y) < p.M {
		panic(fmt.Sprintf("ipe: ExecuteQuantized buffers too small (|x|=%d K=%d |y|=%d M=%d)",
			len(x), p.K, len(y), p.M))
	}
	codes := QuantizeActivations(x[:p.K], xParams, xBits)
	acc := make([]int64, p.M)
	p.ExecuteInt(codes, acc)
	for r := 0; r < p.M; r++ {
		y[r] = float32(acc[r]) * xParams.Scale * p.RowScale(r)
	}
}

// ForwardInt8 runs the encoded convolution with 8-bit integer activations:
// activations are quantized per layer with xParams, all arithmetic is
// integer, and outputs are requantized to float. Bias (kept float, as
// accelerators do with 32-bit bias registers) is added after
// requantization.
func (l *ConvLayer) ForwardInt8(in *tensor.Tensor, xParams quant.Params) *tensor.Tensor {
	spec := l.Spec
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	ocg := spec.OutC / spec.Groups
	out := tensor.New(n, spec.OutC, oh, ow)
	od := out.Data()
	for b := 0; b < n; b++ {
		for g := 0; g < spec.Groups; g++ {
			prog := l.Programs[g]
			col := tensor.Im2colGroup(in, b, g, spec)
			p := col.Dim(1)
			cd := col.Data()
			// Quantize the whole column matrix once; the integer
			// scratchpad is hoisted out of the per-column loop, and row
			// scales are precomputed instead of re-derived per output.
			codes := QuantizeActivations(cd, xParams, 8)
			scales := prog.RowScales()
			xCol := make([]int32, prog.K)
			acc := make([]int64, prog.M)
			vals := make([]int64, prog.NumSymbols())
			for c := 0; c < p; c++ {
				for i := 0; i < prog.K; i++ {
					xCol[i] = codes[i*p+c]
				}
				prog.ExecuteIntScratch(xCol, acc, vals)
				for oc := 0; oc < ocg; oc++ {
					v := float32(acc[oc]) * xParams.Scale * scales[oc]
					if l.Bias != nil {
						v += l.Bias.Data()[g*ocg+oc]
					}
					od[((b*spec.OutC+g*ocg+oc)*oh)*ow+c] = v
				}
			}
		}
	}
	return out
}

// ForwardInt8 runs the encoded dense layer with 8-bit integer activations,
// mirroring ConvLayer.ForwardInt8.
func (l *DenseLayer) ForwardInt8(in *tensor.Tensor, xParams quant.Params) *tensor.Tensor {
	n, k := in.Dim(0), in.Dim(1)
	if k != l.Program.K {
		panic(fmt.Sprintf("ipe: DenseLayer input width %d != K %d", k, l.Program.K))
	}
	out := tensor.New(n, l.Program.M)
	for b := 0; b < n; b++ {
		l.Program.ExecuteQuantized(in.Data()[b*k:(b+1)*k],
			out.Data()[b*l.Program.M:(b+1)*l.Program.M], xParams, 8)
	}
	tensor.AddBiasRows(out.Data(), l.Bias, false, l.Program.M)
	return out
}

// rowCodeSum returns Σ codes of row r — the zero-point correction factor
// of asymmetric activation quantization: Σ w·(q−z) = Σ w·q − z·Σ w, with
// the code-domain weight sum precomputable offline.
func (p *Program) rowCodeSum(r int) int64 {
	var sum int64
	for _, t := range p.Rows[r].Terms {
		var n int64
		for _, s := range t.Syms {
			n += int64(len(p.ExpandSymbol(s)))
		}
		sum += int64(t.Code) * n
	}
	return sum
}

// RowCodeSums precomputes every row's zero-point correction (offline,
// once per program).
func (p *Program) RowCodeSums() []int64 {
	sums := make([]int64, p.M)
	for r := range sums {
		sums[r] = p.rowCodeSum(r)
	}
	return sums
}

// ExecuteQuantizedAsym runs the integer path with *asymmetric* activation
// codes: x is quantized to unsigned bits-wide codes with a zero point, the
// program evaluates the raw codes exactly, and each row subtracts its
// precomputed zero-point correction before requantization. rowSums must
// come from RowCodeSums.
func (p *Program) ExecuteQuantizedAsym(x, y []float32, xParams quant.Params, xBits int, rowSums []int64) {
	if len(x) < p.K || len(y) < p.M || len(rowSums) < p.M {
		panic("ipe: ExecuteQuantizedAsym buffers too small")
	}
	codes := quant.QuantizeAsym(x[:p.K], xParams, xBits)
	acc := make([]int64, p.M)
	p.ExecuteInt(codes, acc)
	z := int64(xParams.ZeroPoint)
	for r := 0; r < p.M; r++ {
		y[r] = float32(acc[r]-z*rowSums[r]) * xParams.Scale * p.RowScale(r)
	}
}
