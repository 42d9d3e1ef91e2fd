package tensor

import (
	"fmt"
	"math"

	"repro/internal/metrics"
)

// ConvSpec describes a 2-D convolution. Weights are stored OIHW
// ([outC, inC/groups, kH, kW]); activations are NCHW unless a kernel states
// otherwise. Groups > 1 expresses grouped/depthwise convolution
// (groups == inC == outC for depthwise).
type ConvSpec struct {
	InC, OutC        int // input / output channel counts
	KH, KW           int // kernel height / width
	StrideH, StrideW int // strides
	PadH, PadW       int // symmetric zero padding
	Groups           int // channel groups; 0 or 1 means dense convolution
}

// Normalize returns the spec with Groups clamped to at least 1.
func (s ConvSpec) Normalize() ConvSpec {
	if s.Groups < 1 {
		s.Groups = 1
	}
	return s
}

// Validate checks internal consistency of the spec.
func (s ConvSpec) Validate() error {
	s = s.Normalize()
	switch {
	case s.InC <= 0 || s.OutC <= 0:
		return fmt.Errorf("tensor: conv channels must be positive: %+v", s)
	case s.KH <= 0 || s.KW <= 0:
		return fmt.Errorf("tensor: conv kernel dims must be positive: %+v", s)
	case s.StrideH <= 0 || s.StrideW <= 0:
		return fmt.Errorf("tensor: conv strides must be positive: %+v", s)
	case s.PadH < 0 || s.PadW < 0:
		return fmt.Errorf("tensor: conv padding must be non-negative: %+v", s)
	case s.InC%s.Groups != 0 || s.OutC%s.Groups != 0:
		return fmt.Errorf("tensor: conv groups %d must divide inC %d and outC %d", s.Groups, s.InC, s.OutC)
	}
	return nil
}

// OutDims returns the output spatial dimensions for an input of h×w.
func (s ConvSpec) OutDims(h, w int) (oh, ow int) {
	oh = (h+2*s.PadH-s.KH)/s.StrideH + 1
	ow = (w+2*s.PadW-s.KW)/s.StrideW + 1
	return oh, ow
}

// WeightShape returns the OIHW weight shape for the spec.
func (s ConvSpec) WeightShape() Shape {
	s = s.Normalize()
	return Shape{s.OutC, s.InC / s.Groups, s.KH, s.KW}
}

// MACs returns the number of multiply-accumulate operations a dense direct
// convolution performs for an input of h×w with batch n.
func (s ConvSpec) MACs(n, h, w int) int64 {
	s = s.Normalize()
	oh, ow := s.OutDims(h, w)
	perOut := int64(s.InC/s.Groups) * int64(s.KH) * int64(s.KW)
	return int64(n) * int64(s.OutC) * int64(oh) * int64(ow) * perOut
}

// Conv2D computes a reference direct 2-D convolution with optional bias.
// in is NCHW [n, inC, h, w]; w is OIHW; bias may be nil or [outC].
// The result is NCHW [n, outC, oh, ow].
func Conv2D(in, weight, bias *Tensor, spec ConvSpec) *Tensor {
	spec = spec.Normalize()
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D produces empty output %dx%d", oh, ow))
	}
	out := New(n, spec.OutC, oh, ow)
	Conv2DIntoPar(out, in, weight, bias, spec, nil)
	return out
}

// Conv2DIntoPar is Conv2D writing into a preallocated destination of shape
// [n, outC, oh, ow] (dst must not alias in), sharded over (batch, output
// channel) units on the given parallelism context (nil par or one shard
// runs serially). Each unit owns a disjoint output plane and its
// accumulation loop is untouched, so the result is bit-identical for any
// shard count.
func Conv2DIntoPar(dst, in, weight, bias *Tensor, spec ConvSpec, par *Par) {
	metrics.Count(metrics.KernelDirect)
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	if c != spec.InC {
		panic(fmt.Sprintf("tensor: Conv2D input channels %d != spec.InC %d", c, spec.InC))
	}
	if !weight.Shape().Equal(spec.WeightShape()) {
		panic(fmt.Sprintf("tensor: Conv2D weight shape %v != expected %v", weight.Shape(), spec.WeightShape()))
	}
	oh, ow := spec.OutDims(h, w)
	// Compare every extent, not just the element count: a wrong-shaped dst
	// with the right size would silently take a garbage layout.
	if dst.Shape().Rank() != 4 || dst.Dim(0) != n || dst.Dim(1) != spec.OutC ||
		dst.Dim(2) != oh || dst.Dim(3) != ow {
		panic(fmt.Sprintf("tensor: Conv2DIntoPar dst %v != [%d %d %d %d]", dst.Shape(), n, spec.OutC, oh, ow))
	}
	units := n * spec.OutC
	if par.Parallel() {
		par.For(units, func(shard, lo, hi int) {
			conv2DUnits(dst, in, weight, bias, spec, oh, ow, lo, hi)
		})
		return
	}
	conv2DUnits(dst, in, weight, bias, spec, oh, ow, 0, units)
}

// conv2DUnits computes the output planes of flattened (batch, outC) units
// [lo, hi) of a direct convolution.
func conv2DUnits(dst, in, weight, bias *Tensor, spec ConvSpec, oh, ow, lo, hi int) {
	c, h, w := in.Dim(1), in.Dim(2), in.Dim(3)
	icg := spec.InC / spec.Groups  // input channels per group
	ocg := spec.OutC / spec.Groups // output channels per group
	ind, wd, od := in.Data(), weight.Data(), dst.Data()
	for u := lo; u < hi; u++ {
		b, oc := u/spec.OutC, u%spec.OutC
		g := oc / ocg
		var bv float32
		if bias != nil {
			bv = bias.Data()[oc]
		}
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := bv
				iy0 := oy*spec.StrideH - spec.PadH
				ix0 := ox*spec.StrideW - spec.PadW
				for ic := 0; ic < icg; ic++ {
					cIn := g*icg + ic
					for ky := 0; ky < spec.KH; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						inRow := ind[((b*c+cIn)*h+iy)*w:]
						wRow := wd[((oc*icg+ic)*spec.KH+ky)*spec.KW:]
						for kx := 0; kx < spec.KW; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							acc += inRow[ix] * wRow[kx]
						}
					}
				}
				od[((b*spec.OutC+oc)*oh+oy)*ow+ox] = acc
			}
		}
	}
}

// Im2colGroup lowers the channels of group g of batch element b into a
// matrix of shape [icg*kH*kW, oh*ow], where icg = inC/groups.
func Im2colGroup(in *Tensor, b, g int, spec ConvSpec) *Tensor {
	spec = spec.Normalize()
	h, w := in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	icg := spec.InC / spec.Groups
	out := New(icg*spec.KH*spec.KW, oh*ow)
	Im2colGroupIntoPar(out.Data(), in, b, g, spec, nil)
	return out
}

// Im2colGroupIntoPar is Im2colGroup writing into a caller-provided buffer of
// at least icg*kH*kW*oh*ow floats (e.g. from a Scratch; every element is
// written, so the buffer need not be zeroed), sharded over output matrix
// rows on the given parallelism context (nil par or one shard runs
// serially). Rows are pure disjoint copies, so the lowering is identical for
// any shard count.
func Im2colGroupIntoPar(dst []float32, in *Tensor, b, g int, spec ConvSpec, par *Par) {
	spec = spec.Normalize()
	h, w := in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	im2colItemsIntoPar(dst, in, b, b+1, g, spec, oh, ow, par)
}

// im2colItemsIntoPar lowers group g of batch elements [b0, b1) into dst as
// one [icg*kH*kW, (b1-b0)*oh*ow] matrix, item b's columns at
// [(b-b0)*oh*ow, (b-b0+1)*oh*ow), sharded over matrix rows.
func im2colItemsIntoPar(dst []float32, in *Tensor, b0, b1, g int, spec ConvSpec, oh, ow int, par *Par) {
	metrics.Count(metrics.KernelIm2col)
	rows := spec.InC / spec.Groups * spec.KH * spec.KW
	if need := rows * (b1 - b0) * oh * ow; len(dst) < need {
		panic(fmt.Sprintf("tensor: im2col dst %d < %d", len(dst), need))
	}
	if par.Parallel() {
		par.For(rows, func(shard, lo, hi int) {
			im2colRows(dst, in, b0, b1, g, spec, oh, ow, lo, hi)
		})
		return
	}
	im2colRows(dst, in, b0, b1, g, spec, oh, ow, 0, rows)
}

// ColumnKernel is the one thing ConvColumns needs from a column-kernel
// family: its per-group weight matrices. GroupMatMulIntoPar writes group g's
// [outC/groups, p] product with the [inC/groups·kH·kW, p] column matrix
// cols into dst (which it need not find zeroed), sharded on par and
// bit-identical for any shard count.
type ColumnKernel interface {
	GroupMatMulIntoPar(g int, dst, cols []float32, p int, par *Par)
}

// ConvColumns is the conv driver of the column kernels (IPE, factorized,
// CSR): per group it lowers all n items of in to one [icg·kH·kW, n·oh·ow]
// column matrix, runs k's matrix call on it, and scatters the [ocg, n·oh·ow]
// result into the NCHW dst (dst must not alias in) in one epilogue pass that
// adds the per-channel bias (a nil bias adds +0) and, when relu is set,
// applies ReLU32 to the sum. Each program or matrix therefore runs once per
// group per call, not once per item. Every output column depends only on its
// own input window, so an n-item call equals n one-item calls bit for bit;
// the epilogue is the same add and the same ReLU the unfused path runs, so
// relu = true equals the call without it followed by ReLUInto. The col/res
// staging buffers come from shard 0's scratch, taken before each parallel
// region starts and released after it joins; with warm scratches a
// one-shard call performs no heap allocations.
func ConvColumns(dst, in *Tensor, spec ConvSpec, bias *Tensor, relu bool, par *Par, k ColumnKernel) {
	spec = spec.Normalize()
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	if dst.Shape().Rank() != 4 || dst.Dim(0) != n || dst.Dim(1) != spec.OutC ||
		dst.Dim(2) != oh || dst.Dim(3) != ow {
		panic(fmt.Sprintf("tensor: ConvColumns dst %v != [%d %d %d %d]", dst.Shape(), n, spec.OutC, oh, ow))
	}
	icg := spec.InC / spec.Groups
	ocg := spec.OutC / spec.Groups
	cols := n * oh * ow
	s0 := par.Scratch(0)
	mark := s0.Mark()
	col := s0.Take(icg * spec.KH * spec.KW * cols)
	res := s0.Take(ocg * cols)
	for g := 0; g < spec.Groups; g++ {
		x := im2colGroupColumns(col, in, g, spec, par)
		k.GroupMatMulIntoPar(g, res, x, cols, par)
		scatterGroupColumns(dst, res, bias, relu, g, ocg)
	}
	s0.Release(mark)
}

// im2colGroupColumns returns group g of every batch element of in as one
// [icg*kH*kW, n*oh*ow] im2col matrix: batch element b's columns are
// [b*oh*ow, (b+1)*oh*ow). For a 1×1 kernel with unit strides and no padding
// the matrix rows are the group's channel planes: at n == 1 they are already
// laid out in the input, so the input's slice is returned in place and col
// is untouched; at n > 1 each element's plane is copied into its columns.
// Otherwise it lowers into col, sharded over matrix rows. col must hold at
// least icg*kH*kW*n*oh*ow floats; callers must not write to the result.
func im2colGroupColumns(col []float32, in *Tensor, g int, spec ConvSpec, par *Par) []float32 {
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	icg := spec.InC / spec.Groups
	oh, ow := spec.OutDims(h, w)
	p := oh * ow
	size := icg * spec.KH * spec.KW * n * p
	if spec.KH == 1 && spec.KW == 1 && spec.StrideH == 1 && spec.StrideW == 1 && spec.PadH == 0 && spec.PadW == 0 {
		ind := in.Data()
		if n == 1 {
			return ind[g*icg*p : (g+1)*icg*p]
		}
		for ic := 0; ic < icg; ic++ {
			for b := 0; b < n; b++ {
				o := (b*c + g*icg + ic) * p
				copy(col[(ic*n+b)*p:(ic*n+b+1)*p], ind[o:o+p])
			}
		}
		return col[:size]
	}
	im2colItemsIntoPar(col, in, 0, n, g, spec, oh, ow, par)
	return col[:size]
}

// scatterGroupColumns is ConvColumns' epilogue: it writes group g's
// [ocg, n*oh*ow] result matrix, laid out as im2colGroupColumns lays out its
// input, into output channels [g*ocg, (g+1)*ocg) of the NCHW dst as
// v + bias[oc], or ReLU32(v + bias[oc]) when relu is set.
func scatterGroupColumns(dst *Tensor, res []float32, bias *Tensor, relu bool, g, ocg int) {
	n, outC, hw := dst.Dim(0), dst.Dim(1), dst.Dim(2)*dst.Dim(3)
	od := dst.Data()
	for oc := 0; oc < ocg; oc++ {
		var bv float32
		if bias != nil {
			bv = bias.Data()[g*ocg+oc]
		}
		for b := 0; b < n; b++ {
			src := res[(oc*n+b)*hw : (oc*n+b+1)*hw]
			o := (b*outC + g*ocg + oc) * hw
			d := od[o : o+len(src)]
			if relu {
				for i, v := range src {
					d[i] = ReLU32(v + bv)
				}
			} else {
				for i, v := range src {
					d[i] = v + bv
				}
			}
		}
	}
}

// im2colRows lowers im2col matrix rows [lo, hi) for batch elements
// [b0, b1), where row r unpacks to (ic, ky, kx) = (r/(KH·KW), (r/KW)%KH,
// r%KW) and holds each element's oh*ow columns side by side. Output pixel
// (oy, ox) reads input pixel (oy·StrideH − PadH + ky, ox·StrideW − PadW +
// kx), so the in-bounds outputs of a row are one rectangle [y0, y1) ×
// [x0, x1), clipped once per row: every other output is padding and is
// zeroed, and each output row inside it reads one input row at a fixed
// stride, with no bounds check per tap.
func im2colRows(dst []float32, in *Tensor, b0, b1, g int, spec ConvSpec, oh, ow, lo, hi int) {
	c, h, w := in.Dim(1), in.Dim(2), in.Dim(3)
	icg := spec.InC / spec.Groups
	p := oh * ow
	sw := spec.StrideW
	ind := in.Data()
	kx, ky, ic := lo%spec.KW, (lo/spec.KW)%spec.KH, lo/(spec.KW*spec.KH)
	for row := lo; row < hi; row++ {
		cIn := g*icg + ic
		offY, offX := ky-spec.PadH, kx-spec.PadW // input pixel of output (0, 0)
		y1 := min(ceilDiv(h-offY, spec.StrideH), oh)
		y0 := min(ceilDiv(-offY, spec.StrideH), y1)
		x1 := min(ceilDiv(w-offX, sw), ow)
		x0 := min(ceilDiv(-offX, sw), x1)
		for b := b0; b < b1; b++ {
			out := dst[(row*(b1-b0)+b-b0)*p : (row*(b1-b0)+b-b0+1)*p]
			plane := ind[(b*c+cIn)*h*w : (b*c+cIn+1)*h*w]
			for i := 0; i < y0*ow; i++ {
				out[i] = 0
			}
			for oy := y0; oy < y1; oy++ {
				d := out[oy*ow : (oy+1)*ow]
				src := plane[(oy*spec.StrideH+offY)*w:]
				for ox := 0; ox < x0; ox++ {
					d[ox] = 0
				}
				for ox := x0; ox < x1; ox++ {
					d[ox] = src[ox*sw+offX]
				}
				for ox := x1; ox < len(d); ox++ {
					d[ox] = 0
				}
			}
			for i := y1 * ow; i < len(out); i++ {
				out[i] = 0
			}
		}
		if kx++; kx == spec.KW {
			kx = 0
			if ky++; ky == spec.KH {
				ky = 0
				ic++
			}
		}
	}
}

// ceilDiv returns ⌈a/b⌉ for b > 0, clamped below at 0.
func ceilDiv(a, b int) int {
	switch {
	case a <= 0:
		return 0
	case b == 1:
		return a
	}
	return (a + b - 1) / b
}

// Conv2DIm2col computes convolution by im2col lowering followed by GEMM.
// It matches Conv2D exactly up to float accumulation order.
func Conv2DIm2col(in, weight, bias *Tensor, spec ConvSpec) *Tensor {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	icg := spec.InC / spec.Groups
	ocg := spec.OutC / spec.Groups
	out := New(n, spec.OutC, oh, ow)
	wd, od := weight.Data(), out.Data()
	cbuf := make([]float32, ocg*oh*ow)
	for b := 0; b < n; b++ {
		for g := 0; g < spec.Groups; g++ {
			col := Im2colGroup(in, b, g, spec)
			// Weight rows for this group: [ocg, icg*kH*kW].
			wmat := wd[g*ocg*icg*spec.KH*spec.KW : (g+1)*ocg*icg*spec.KH*spec.KW]
			Gemm(wmat, col.Data(), cbuf, ocg, icg*spec.KH*spec.KW, oh*ow)
			for oc := 0; oc < ocg; oc++ {
				dst := od[((b*spec.OutC+g*ocg+oc)*oh)*ow:]
				src := cbuf[oc*oh*ow : (oc+1)*oh*ow]
				var bv float32
				if bias != nil {
					bv = bias.Data()[g*ocg+oc]
				}
				for i, v := range src {
					dst[i] = v + bv
				}
			}
		}
	}
	return out
}

// ReLU applies max(0, x) elementwise, returning a new tensor.
func ReLU(in *Tensor) *Tensor {
	out := New(in.Shape()...)
	ReLUInto(out, in)
	return out
}

// ReLUInto writes ReLU32(x) into dst. dst may alias in (in-place ReLU).
func ReLUInto(dst, in *Tensor) {
	if dst.NumElements() != in.NumElements() {
		panic(fmt.Sprintf("tensor: ReLUInto dst %v != in %v", dst.Shape(), in.Shape()))
	}
	id := in.Data()
	od := dst.Data()[:len(id)]
	for i, v := range id {
		od[i] = ReLU32(v)
	}
}

// ReLU32 returns x < 0 ? +0 : x without a branch: −0 and every NaN, payload
// included, pass through unchanged, and negative finite values and −Inf
// become +0. Those are exactly the bit patterns 0x80000001..0xFF800000, so
// one unsigned compare selects them and the zeroing compiles to a
// conditional move rather than a branch on the sign of every element.
func ReLU32(x float32) float32 {
	b := math.Float32bits(x)
	if b-0x80000001 < 0xFF800000-0x80000000 {
		b = 0
	}
	return math.Float32frombits(b)
}

// AddTensors returns the elementwise sum of two same-shape tensors.
func AddTensors(a, b *Tensor) *Tensor {
	out := New(a.Shape()...)
	AddInto(out, a, b)
	return out
}

// AddInto writes a+b elementwise into dst. dst may alias either operand.
func AddInto(dst, a, b *Tensor) {
	if !a.Shape().Equal(b.Shape()) {
		panic(fmt.Sprintf("tensor: add shape mismatch %v vs %v", a.Shape(), b.Shape()))
	}
	if dst.NumElements() != a.NumElements() {
		panic(fmt.Sprintf("tensor: AddInto dst %v != operands %v", dst.Shape(), a.Shape()))
	}
	ad, bd, od := a.Data(), b.Data(), dst.Data()
	for i := range od {
		od[i] = ad[i] + bd[i]
	}
}

// MaxPool2D computes max pooling over an NCHW tensor.
func MaxPool2D(in *Tensor, kh, kw, strideH, strideW, padH, padW int) *Tensor {
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	oh := (h+2*padH-kh)/strideH + 1
	ow := (w+2*padW-kw)/strideW + 1
	out := New(n, c, oh, ow)
	MaxPool2DInto(out, in, kh, kw, strideH, strideW, padH, padW)
	return out
}

// MaxPool2DInto is MaxPool2D writing into a preallocated [n, c, oh, ow]
// destination. Each output is the first in-bounds tap of its window folded
// with `if v > best` over the window's in-bounds taps in row-major order, so
// a NaN first tap holds and a later NaN never wins; a window wholly in the
// padding yields +0. The window is clipped to the input once per output,
// so no tap is bounds-checked, and the select runs on the bits so it
// compiles to a conditional move rather than a branch per tap.
func MaxPool2DInto(dst, in *Tensor, kh, kw, strideH, strideW, padH, padW int) {
	n, c, h, w, oh, ow := poolDims("MaxPool2DInto", dst, in, kh, kw, strideH, strideW, padH, padW)
	ind, od := in.Data(), dst.Data()
	for pl := 0; pl < n*c; pl++ {
		src := ind[pl*h*w : (pl+1)*h*w]
		out := od[pl*oh*ow : (pl+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			y0, y1 := clipWindow(oy*strideH-padH, kh, h)
			row := out[oy*ow : (oy+1)*ow]
			for ox := range row {
				x0, x1 := clipWindow(ox*strideW-padW, kw, w)
				if y0 >= y1 || x0 >= x1 {
					row[ox] = 0
					continue
				}
				bb := math.Float32bits(src[y0*w+x0])
				for iy := y0; iy < y1; iy++ {
					for _, v := range src[iy*w+x0 : iy*w+x1] {
						vb := math.Float32bits(v)
						if v > math.Float32frombits(bb) {
							bb = vb
						}
					}
				}
				row[ox] = math.Float32frombits(bb)
			}
		}
	}
}

// clipWindow returns the in-bounds part [lo, hi) of the k taps starting at
// start along an axis of extent n; lo >= hi when none is in bounds.
func clipWindow(start, k, n int) (lo, hi int) {
	return max(start, 0), min(start+k, n)
}

// poolDims returns the extents of a rank-4 NCHW pooling input and of its
// [n, c, oh, ow] output, panicking unless in is rank 4 and dst has exactly
// the output's extents: a destination with the right element count but
// another shape (say [n, c, ow, oh]) would silently take a garbage layout.
func poolDims(op string, dst, in *Tensor, kh, kw, strideH, strideW, padH, padW int) (n, c, h, w, oh, ow int) {
	if in.Shape().Rank() != 4 {
		panic(fmt.Sprintf("tensor: %s input %v is not NCHW", op, in.Shape()))
	}
	n, c, h, w = in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	oh = (h+2*padH-kh)/strideH + 1
	ow = (w+2*padW-kw)/strideW + 1
	if dst.Shape().Rank() != 4 || dst.Dim(0) != n || dst.Dim(1) != c || dst.Dim(2) != oh || dst.Dim(3) != ow {
		panic(fmt.Sprintf("tensor: %s dst %v != [%d %d %d %d]", op, dst.Shape(), n, c, oh, ow))
	}
	return n, c, h, w, oh, ow
}

// AvgPool2D computes average pooling over an NCHW tensor, dividing by the
// number of in-bounds taps (count_include_pad = false).
func AvgPool2D(in *Tensor, kh, kw, strideH, strideW, padH, padW int) *Tensor {
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	oh := (h+2*padH-kh)/strideH + 1
	ow := (w+2*padW-kw)/strideW + 1
	out := New(n, c, oh, ow)
	AvgPool2DInto(out, in, kh, kw, strideH, strideW, padH, padW)
	return out
}

// AvgPool2DInto is AvgPool2D writing into a preallocated [n, c, oh, ow]
// destination.
func AvgPool2DInto(dst, in *Tensor, kh, kw, strideH, strideW, padH, padW int) {
	n, c, h, w, oh, ow := poolDims("AvgPool2DInto", dst, in, kh, kw, strideH, strideW, padH, padW)
	ind, od := in.Data(), dst.Data()
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var sum float32
					cnt := 0
					for ky := 0; ky < kh; ky++ {
						iy := oy*strideH - padH + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*strideW - padW + kx
							if ix < 0 || ix >= w {
								continue
							}
							sum += ind[base+iy*w+ix]
							cnt++
						}
					}
					var v float32
					if cnt > 0 {
						v = sum / float32(cnt)
					}
					od[((b*c+ch)*oh+oy)*ow+ox] = v
				}
			}
		}
	}
}

// GlobalAvgPool2D reduces each channel's spatial plane to its mean,
// producing an NCHW tensor with 1×1 spatial extent.
func GlobalAvgPool2D(in *Tensor) *Tensor {
	n, c := in.Dim(0), in.Dim(1)
	out := New(n, c, 1, 1)
	GlobalAvgPool2DInto(out, in)
	return out
}

// GlobalAvgPool2DInto is GlobalAvgPool2D writing into a preallocated
// [n, c, 1, 1] destination.
func GlobalAvgPool2DInto(dst, in *Tensor) {
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	if dst.NumElements() != n*c {
		panic(fmt.Sprintf("tensor: GlobalAvgPool2DInto dst %v != [%d %d 1 1]", dst.Shape(), n, c))
	}
	ind, od := in.Data(), dst.Data()
	hw := h * w
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * hw
			var s float64
			for i := 0; i < hw; i++ {
				s += float64(ind[base+i])
			}
			od[b*c+ch] = float32(s / float64(hw))
		}
	}
}

// BatchNorm applies inference-mode batch normalization per channel:
// y = gamma*(x-mean)/sqrt(var+eps) + beta. All parameter tensors have
// shape [c].
func BatchNorm(in, gamma, beta, mean, variance *Tensor, eps float32) *Tensor {
	out := New(in.Shape()...)
	BatchNormInto(out, in, gamma, beta, mean, variance, eps)
	return out
}

// BatchNormInto is BatchNorm writing into a preallocated destination of the
// input's shape. dst may alias in.
func BatchNormInto(dst, in, gamma, beta, mean, variance *Tensor, eps float32) {
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	if dst.NumElements() != in.NumElements() {
		panic(fmt.Sprintf("tensor: BatchNormInto dst %v != in %v", dst.Shape(), in.Shape()))
	}
	ind, od := in.Data(), dst.Data()
	g, bt, mu, va := gamma.Data(), beta.Data(), mean.Data(), variance.Data()
	hw := h * w
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			scale := g[ch] / sqrt32(va[ch]+eps)
			shift := bt[ch] - mu[ch]*scale
			base := (b*c + ch) * hw
			for i := 0; i < hw; i++ {
				od[base+i] = ind[base+i]*scale + shift
			}
		}
	}
}

func sqrt32(x float32) float32 {
	// Newton iterations on a float64 seed are exact enough for float32.
	if x <= 0 {
		return 0
	}
	y := x
	z := 0.5 * (float64(y) + float64(x)/float64(y))
	z = 0.5 * (z + float64(x)/z)
	z = 0.5 * (z + float64(x)/z)
	z = 0.5 * (z + float64(x)/z)
	return float32(z)
}

// Dense computes a fully connected layer y = W·x + b for each batch row.
// in is [n, k]; weight is [m, k]; bias may be nil or [m]. Result is [n, m].
func Dense(in, weight, bias *Tensor) *Tensor {
	out := New(in.Dim(0), weight.Dim(0))
	DenseIntoPar(out, in, weight, bias, nil)
	return out
}

// DenseIntoPar is Dense writing into a preallocated [n, m] destination (dst
// must not alias in), sharded over flattened (batch, output) elements on
// the given parallelism context (nil par or one shard runs serially). Each
// output element's dot product and bias add are untouched, so the result is
// bit-identical for any shard count.
func DenseIntoPar(dst, in, weight, bias *Tensor, par *Par) {
	metrics.Count(metrics.KernelGEMM)
	n, k := in.Dim(0), in.Dim(1)
	m, k2 := weight.Dim(0), weight.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: Dense inner dims differ: input %d vs weight %d", k, k2))
	}
	if dst.NumElements() != n*m {
		panic(fmt.Sprintf("tensor: DenseIntoPar dst %v != [%d %d]", dst.Shape(), n, m))
	}
	units := n * m
	if par.Parallel() {
		par.For(units, func(shard, lo, hi int) {
			denseRange(dst, in, weight, bias, k, m, lo, hi)
		})
		return
	}
	denseRange(dst, in, weight, bias, k, m, 0, units)
}

// denseRange computes flattened (batch, output) elements [lo, hi) of a
// fully connected layer: od[b*m+i] = W[i]·x[b] + bias[i].
func denseRange(dst, in, weight, bias *Tensor, k, m, lo, hi int) {
	ind, wd, od := in.Data(), weight.Data(), dst.Data()
	for u := lo; u < hi; u++ {
		b, i := u/m, u%m
		row := wd[i*k : i*k+k]
		x := ind[b*k : b*k+k]
		var s float32
		for j, v := range row {
			s += v * x[j]
		}
		if bias != nil {
			s += bias.Data()[i]
		}
		od[u] = s
	}
}

// AddBiasRows is the dense layers' epilogue over the rows of a row-major
// [n, m] buffer: od[b·m+i] += bias[i] (a nil bias adds nothing), then ReLU32
// when relu is set, in one pass with the same arithmetic as a bias pass
// followed by ReLUInto.
func AddBiasRows(od []float32, bias *Tensor, relu bool, m int) {
	if bias == nil && !relu {
		return
	}
	var bd []float32
	if bias != nil {
		bd = bias.Data()[:m]
	}
	for o := 0; o < len(od); o += m {
		row := od[o : o+m]
		for i, v := range row {
			if bd != nil {
				v += bd[i]
			}
			if relu {
				v = ReLU32(v)
			}
			row[i] = v
		}
	}
}

// Softmax applies a numerically stable softmax along the last dimension of a
// rank-2 tensor.
func Softmax(in *Tensor) *Tensor {
	out := New(in.Dim(0), in.Dim(1))
	SoftmaxInto(out, in)
	return out
}

// SoftmaxInto is Softmax writing into a preallocated [n, k] destination.
// dst may alias in.
func SoftmaxInto(dst, in *Tensor) {
	n, k := in.Dim(0), in.Dim(1)
	if dst.NumElements() != n*k {
		panic(fmt.Sprintf("tensor: SoftmaxInto dst %v != [%d %d]", dst.Shape(), n, k))
	}
	ind, od := in.Data(), dst.Data()
	for b := 0; b < n; b++ {
		row := ind[b*k : (b+1)*k]
		mx := row[0]
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - mx))
			od[b*k+i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := 0; i < k; i++ {
			od[b*k+i] *= inv
		}
	}
}
