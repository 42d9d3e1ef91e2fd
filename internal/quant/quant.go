// Package quant implements uniform affine quantization and magnitude
// pruning for weight tensors. Index-pair encoding operates on quantized
// weights: the fewer distinct weight values a layer has, the larger the
// index sets that share a value and the more pair repetition the encoder can
// harvest, so quantization is the lever that controls INSPIRE's gains.
package quant

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
)

// Scheme selects the granularity of the quantization parameters.
type Scheme int

const (
	// PerTensor uses a single (scale, zero-point) for the whole tensor.
	PerTensor Scheme = iota
	// PerChannel uses one (scale, zero-point) per output channel
	// (dimension 0 of an OIHW weight or an [m,k] dense weight).
	PerChannel
)

// String returns the scheme's conventional name.
func (s Scheme) String() string {
	switch s {
	case PerTensor:
		return "per-tensor"
	case PerChannel:
		return "per-channel"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Params holds the affine quantization parameters of one channel (or of the
// whole tensor for per-tensor quantization): real = scale*(q - zeroPoint).
type Params struct {
	Scale     float32
	ZeroPoint int32
}

// Quantized is a quantized integer tensor together with the parameters
// needed to dequantize it. Codes are stored widened to int32 regardless of
// the nominal bit-width so that any b in [1,16] shares one representation.
type Quantized struct {
	// Codes holds the integer codes in the same row-major order as the
	// original tensor.
	Codes []int32
	// Shape is the original tensor shape.
	Shape tensor.Shape
	// Bits is the nominal bit-width b; codes lie in [-2^(b-1), 2^(b-1)-1]
	// (symmetric signed range).
	Bits int
	// Scheme records the parameter granularity.
	Scheme Scheme
	// Params has one entry for per-tensor quantization or Shape[0] entries
	// for per-channel quantization.
	Params []Params
}

// NumElements returns the number of quantized codes.
func (q *Quantized) NumElements() int { return len(q.Codes) }

// ChannelParams returns the parameters that apply to flat element index i.
func (q *Quantized) ChannelParams(i int) Params {
	if q.Scheme == PerTensor || len(q.Params) == 1 {
		return q.Params[0]
	}
	chanSize := len(q.Codes) / q.Shape[0]
	return q.Params[i/chanSize]
}

// RowScale returns the dequantization scale of row (dimension 0 index) row.
func (q *Quantized) RowScale(row int) float32 {
	if q.Scheme == PerChannel && len(q.Params) > row {
		return q.Params[row].Scale
	}
	return q.Params[0].Scale
}

// DistinctValues returns the number of distinct codes actually present.
func (q *Quantized) DistinctValues() int {
	seen := make(map[int32]struct{}, 64)
	for _, c := range q.Codes {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// Sparsity returns the fraction of codes equal to the zero code.
func (q *Quantized) Sparsity() float64 {
	if len(q.Codes) == 0 {
		return 0
	}
	zero := 0
	for i, c := range q.Codes {
		if c == q.ChannelParams(i).ZeroPoint {
			zero++
		}
	}
	return float64(zero) / float64(len(q.Codes))
}

// Dequantize reconstructs the real-valued tensor from the codes.
func (q *Quantized) Dequantize() *tensor.Tensor {
	out := tensor.New(q.Shape...)
	d := out.Data()
	if q.Scheme == PerTensor || len(q.Params) == 1 {
		p := q.Params[0]
		for i, c := range q.Codes {
			d[i] = p.Scale * float32(c-p.ZeroPoint)
		}
		return out
	}
	chanSize := len(q.Codes) / q.Shape[0]
	for ch := 0; ch < q.Shape[0]; ch++ {
		p := q.Params[ch]
		base := ch * chanSize
		for i := 0; i < chanSize; i++ {
			d[base+i] = p.Scale * float32(q.Codes[base+i]-p.ZeroPoint)
		}
	}
	return out
}

// Rows returns rows [lo, hi) of q (dimension 0) as an [hi-lo, K] matrix
// sharing q's codes and parameters: one group's weights of a grouped
// convolution.
func (q *Quantized) Rows(lo, hi int) *Quantized {
	k := len(q.Codes) / q.Shape[0]
	v := *q
	v.Codes, v.Shape = q.Codes[lo*k:hi*k], tensor.Shape{hi - lo, k}
	if q.Scheme == PerChannel {
		v.Params = q.Params[lo:hi]
	}
	return &v
}

// Quantize quantizes t symmetrically to the given bit-width: the zero point
// is always 0 and the scale maps the max-magnitude value to the integer
// range edge. Symmetric quantization keeps the zero code exactly zero,
// which both pruning and index-pair encoding rely on. bits must be in
// [1, 16].
func Quantize(t *tensor.Tensor, bits int, scheme Scheme) *Quantized {
	if bits < 1 || bits > 16 {
		panic(fmt.Sprintf("quant: bits %d out of range [1,16]", bits))
	}
	q := &Quantized{
		Codes:  make([]int32, t.NumElements()),
		Shape:  t.Shape().Clone(),
		Bits:   bits,
		Scheme: scheme,
	}
	qmax := int32(1<<(bits-1)) - 1
	if qmax == 0 {
		qmax = 1 // 1-bit: codes in {-1, 0, 1} degenerate to {-1, 0, 1} clamp
	}
	quantRange := func(codes []int32, data []float32) Params {
		var m float32
		for _, v := range data {
			if a := float32(math.Abs(float64(v))); a > m {
				m = a
			}
		}
		scale := m / float32(qmax)
		if scale == 0 {
			scale = 1
		}
		inv := 1 / scale
		for i, v := range data {
			c := int32(math.RoundToEven(float64(v * inv)))
			if c > qmax {
				c = qmax
			}
			if c < -qmax {
				c = -qmax
			}
			codes[i] = c
		}
		return Params{Scale: scale}
	}
	d := t.Data()
	if scheme == PerTensor || t.Shape().Rank() == 0 || t.Dim(0) == 0 {
		q.Params = []Params{quantRange(q.Codes, d)}
		return q
	}
	nch := t.Dim(0)
	chanSize := t.NumElements() / nch
	q.Params = make([]Params, nch)
	for ch := 0; ch < nch; ch++ {
		q.Params[ch] = quantRange(q.Codes[ch*chanSize:(ch+1)*chanSize], d[ch*chanSize:(ch+1)*chanSize])
	}
	return q
}

// PruneMagnitude zeroes the fraction p of smallest-magnitude elements of t
// in place and returns the number of elements pruned. p is clamped to [0,1].
// Ties at the threshold are broken by index order so that the result is
// deterministic.
func PruneMagnitude(t *tensor.Tensor, p float64) int {
	if p <= 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	d := t.Data()
	n := len(d)
	target := int(math.Round(p * float64(n)))
	if target == 0 {
		return 0
	}
	type elem struct {
		mag float64
		idx int
	}
	elems := make([]elem, n)
	for i, v := range d {
		elems[i] = elem{math.Abs(float64(v)), i}
	}
	sort.Slice(elems, func(i, j int) bool {
		if elems[i].mag != elems[j].mag {
			return elems[i].mag < elems[j].mag
		}
		return elems[i].idx < elems[j].idx
	})
	for i := 0; i < target; i++ {
		d[elems[i].idx] = 0
	}
	return target
}

// Calibrate computes the max-abs activation range over a set of calibration
// tensors, as a per-tensor scale suitable for activation quantization.
func Calibrate(samples []*tensor.Tensor, bits int) Params {
	var m float32
	for _, s := range samples {
		if a := s.MaxAbs(); a > m {
			m = a
		}
	}
	qmax := int32(1<<(bits-1)) - 1
	if qmax == 0 {
		qmax = 1
	}
	scale := m / float32(qmax)
	if scale == 0 {
		scale = 1
	}
	return Params{Scale: scale}
}
