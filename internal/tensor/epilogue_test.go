package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The loops below are the bounds-checked, two-pass forms MaxPool2DInto,
// im2colRows and the conv epilogue replaced. They are kept here, unchanged,
// as the bitwise oracles of the rewrites: each rewrite visits the same
// values in the same order, so it must match them bit for bit, NaN payloads
// and signed zeros included.

// maxPoolOracle bounds-checks every tap and takes the first in-bounds tap
// through a flag.
func maxPoolOracle(dst, in *Tensor, kh, kw, strideH, strideW, padH, padW int) {
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	oh := (h+2*padH-kh)/strideH + 1
	ow := (w+2*padW-kw)/strideW + 1
	ind, od := in.Data(), dst.Data()
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(0)
					first := true
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
							v := ind[base+iy*w+ix]
							if first || v > best {
								best = v
								first = false
							}
						}
					}
					od[((b*c+ch)*oh+oy)*ow+ox] = best
				}
			}
		}
	}
}

// im2colOracle bounds-checks every tap of im2col rows [lo, hi).
func im2colOracle(dst []float32, in *Tensor, b0, b1, g int, spec ConvSpec, oh, ow, lo, hi int) {
	c, h, w := in.Dim(1), in.Dim(2), in.Dim(3)
	icg := spec.InC / spec.Groups
	p := oh * ow
	ind, od := in.Data(), dst
	for row := lo; row < hi; row++ {
		kx := row % spec.KW
		ky := (row / spec.KW) % spec.KH
		ic := row / (spec.KW * spec.KH)
		cIn := g*icg + ic
		for b := b0; b < b1; b++ {
			dst := od[(row*(b1-b0)+b-b0)*p:]
			for oy := 0; oy < oh; oy++ {
				iy := oy*spec.StrideH - spec.PadH + ky
				for ox := 0; ox < ow; ox++ {
					ix := ox*spec.StrideW - spec.PadW + kx
					var v float32
					if iy >= 0 && iy < h && ix >= 0 && ix < w {
						v = ind[((b*c+cIn)*h+iy)*w+ix]
					}
					dst[oy*ow+ox] = v
				}
			}
		}
	}
}

// scatterOracle is the epilogue's first pass: the bias scatter alone.
func scatterOracle(dst *Tensor, res []float32, bias *Tensor, g, ocg int) {
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
			for i, v := range src {
				od[o+i] = v + bv
			}
		}
	}
}

// reluOracle is the epilogue's second pass: the branching ReLU.
func reluOracle(d []float32) {
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		} else {
			d[i] = v
		}
	}
}

// specialBits are the values the rewrites must carry bit for bit: NaNs
// with payloads (quiet and signalling, both signs), signed zeros and
// infinities, and the extreme finite and subnormal magnitudes.
var specialBits = []uint32{
	0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFC12345, 0x7F800001, 0xFFBFFFFF,
	0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
	0x7F7FFFFF, 0xFF7FFFFF, 0x00000001, 0x80000001,
}

// laced returns a tensor of Gaussian values, about a quarter of them
// replaced by specialBits.
func laced(seed uint64, shape ...int) *Tensor {
	t := New(shape...)
	r := NewRNG(seed)
	FillGaussian(t, r, 1)
	d := t.Data()
	for i := range d {
		if r.Intn(4) == 0 {
			d[i] = math.Float32frombits(specialBits[r.Intn(len(specialBits))])
		}
	}
	return t
}

func expectSameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: [%d] = %#08x, want %#08x", name, i, g, w)
		}
	}
}

// TestReLU32BitRule checks ReLU32 against `x < 0 ? 0 : x` on every special
// value, the edges of the zeroed range, and a sweep of the bit space.
func TestReLU32BitRule(t *testing.T) {
	check := func(b uint32) {
		x := math.Float32frombits(b)
		want := x
		if x < 0 {
			want = 0
		}
		if got := ReLU32(x); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("ReLU32(%#08x) = %#08x, want %#08x", b, math.Float32bits(got), math.Float32bits(want))
		}
	}
	for _, b := range specialBits {
		check(b)
	}
	for _, edge := range []uint32{0, 0x7F800000, 0x80000000, 0xFF800000} {
		for d := uint32(0); d < 4; d++ {
			check(edge + d)
			check(edge - d)
		}
	}
	for b := uint64(0); b < 1<<32; b += 65521 {
		check(uint32(b))
	}
}

// TestConvEpilogueMatchesTwoPasses checks the fused scatter against the
// bias scatter followed by the branching ReLU, for nil and non-nil bias,
// one to three items and grouped layouts, and that −0 + −0 leaves the fused
// epilogue as −0.
func TestConvEpilogueMatchesTwoPasses(t *testing.T) {
	for _, groups := range []int{1, 2, 4} {
		for n := 1; n <= 3; n++ {
			for _, withBias := range []bool{false, true} {
				name := fmt.Sprintf("groups=%d n=%d bias=%v", groups, n, withBias)
				const outC, oh, ow = 8, 3, 5
				ocg, hw := outC/groups, oh*ow
				var bias *Tensor
				if withBias {
					bias = laced(uint64(7+n), outC)
					bias.Data()[0] = float32(math.Copysign(0, -1))
				}
				got, want := New(n, outC, oh, ow), New(n, outC, oh, ow)
				for g := 0; g < groups; g++ {
					res := laced(uint64(100*groups+10*n+g), ocg*n*hw).Data()
					res[0] = float32(math.Copysign(0, -1))
					scatterGroupColumns(got, res, bias, true, g, ocg)
					scatterOracle(want, res, bias, g, ocg)
				}
				reluOracle(want.Data())
				expectSameBits(t, name, got.Data(), want.Data())
				if withBias && math.Float32bits(got.Data()[0]) != 0x80000000 {
					t.Fatalf("%s: −0 + −0 through the epilogue = %#08x, want −0", name, math.Float32bits(got.Data()[0]))
				}
			}
		}
	}
}

// TestAddBiasRowsMatchesTwoPasses checks the dense epilogue against the
// bias loop it replaced (nothing added for a nil bias) followed by the
// branching ReLU, with the ReLU on and off.
func TestAddBiasRowsMatchesTwoPasses(t *testing.T) {
	const n, m = 3, 7
	for _, withBias := range []bool{false, true} {
		for _, relu := range []bool{false, true} {
			var bias *Tensor
			if withBias {
				bias = laced(41, m)
			}
			got := laced(42, n*m).Data()
			want := append([]float32(nil), got...)
			AddBiasRows(got, bias, relu, m)
			if bias != nil {
				for b := 0; b < n; b++ {
					for i := 0; i < m; i++ {
						want[b*m+i] += bias.Data()[i]
					}
				}
			}
			if relu {
				reluOracle(want)
			}
			expectSameBits(t, fmt.Sprintf("bias=%v relu=%v", withBias, relu), got, want)
		}
	}
}

// gemmColumns is a ColumnKernel over dense per-group weights, enough to
// drive ConvColumns end to end.
type gemmColumns struct {
	w        []float32
	ocg, kSz int
}

func (k gemmColumns) GroupMatMulIntoPar(g int, dst, cols []float32, p int, par *Par) {
	Gemm(k.w[g*k.ocg*k.kSz:(g+1)*k.ocg*k.kSz], cols, dst, k.ocg, k.kSz, p)
}

// TestConvColumnsReLUEqualsReLUInto checks the driver's fused ReLU against
// an unfused call followed by ReLUInto, and the unfused call against the
// im2col+GEMM reference, over grouped, strided, padded and multi-item
// convolutions at one and three shards.
func TestConvColumnsReLUEqualsReLUInto(t *testing.T) {
	for _, spec := range []ConvSpec{
		{InC: 4, OutC: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 4, OutC: 6, KH: 3, KW: 2, StrideH: 2, StrideW: 3, PadH: 2, Groups: 2},
		{InC: 4, OutC: 6, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
	} {
		for n := 1; n <= 3; n++ {
			in := laced(uint64(20+n), n, spec.InC, 7, 6)
			w := randTensor(30, spec.WeightShape()...)
			bias := randTensor(31, spec.OutC)
			k := gemmColumns{w: w.Data(), ocg: spec.OutC / spec.Normalize().Groups,
				kSz: spec.InC / spec.Normalize().Groups * spec.KH * spec.KW}
			oh, ow := spec.OutDims(7, 6)
			for _, shards := range []int{1, 3} {
				name := fmt.Sprintf("%+v n=%d shards=%d", spec, n, shards)
				plain, fused := New(n, spec.OutC, oh, ow), New(n, spec.OutC, oh, ow)
				ConvColumns(plain, in, spec, bias, false, forcedPar(shards), k)
				expectSameBits(t, name+" vs Conv2DIm2col", plain.Data(), Conv2DIm2col(in, w, bias, spec).Data())
				ConvColumns(fused, in, spec, bias, true, forcedPar(shards), k)
				ReLUInto(plain, plain)
				expectSameBits(t, name, fused.Data(), plain.Data())
			}
		}
	}
}

// TestIm2colRowsMatchesBoundsCheckedLoop checks the clipped lowering
// against the per-tap bounds-checked loop for strides 1–3 on either axis,
// pads 0–3 and kernels from 1 up to wider than the padded input, at one and
// two items, serially and sharded.
func TestIm2colRowsMatchesBoundsCheckedLoop(t *testing.T) {
	const c, h, w = 4, 5, 4
	in := laced(5, 2, c, h, w)
	pars := []*Par{nil, forcedPar(3)}
	for sh := 1; sh <= 3; sh++ {
		for sw := 1; sw <= 3; sw++ {
			for pad := 0; pad <= 3; pad++ {
				for kh := 1; kh <= h+2*pad+1; kh += 2 {
					for kw := 1; kw <= w+2*pad+1; kw++ {
						spec := ConvSpec{InC: c, OutC: 2, KH: kh, KW: kw, StrideH: sh, StrideW: sw,
							PadH: pad, PadW: (pad + kw) % 4, Groups: 2}
						oh, ow := spec.OutDims(h, w)
						if oh < 1 || ow < 1 {
							continue
						}
						rows := c / 2 * kh * kw
						for g := 0; g < 2; g++ {
							for _, items := range [][2]int{{1, 2}, {0, 2}} {
								want := make([]float32, rows*(items[1]-items[0])*oh*ow)
								im2colOracle(want, in, items[0], items[1], g, spec, oh, ow, 0, rows)
								for _, par := range pars {
									got := make([]float32, len(want))
									for i := range got {
										got[i] = float32(math.NaN()) // every element must be written
									}
									im2colItemsIntoPar(got, in, items[0], items[1], g, spec, oh, ow, par)
									expectSameBits(t, fmt.Sprintf("%+v g%d items %v", spec, g, items), got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestPoolRejectsWrongShapedDst checks both pool entry points compare every
// destination extent, not just the element count, and want an NCHW input.
func TestPoolRejectsWrongShapedDst(t *testing.T) {
	in := New(1, 2, 6, 4) // 2×2/s2 pooling → [1, 2, 3, 2]
	pools := map[string]func(dst, in *Tensor){
		"MaxPool2DInto": func(dst, in *Tensor) { MaxPool2DInto(dst, in, 2, 2, 2, 2, 0, 0) },
		"AvgPool2DInto": func(dst, in *Tensor) { AvgPool2DInto(dst, in, 2, 2, 2, 2, 0, 0) },
	}
	for name, pool := range pools {
		pool(New(1, 2, 3, 2), in)
		for _, c := range []struct {
			what    string
			dst, in *Tensor
		}{
			{"transposed [n c ow oh] dst", New(1, 2, 2, 3), in},
			{"rank-2 dst", New(2, 6), in},
			{"channels and batch swapped", New(2, 1, 3, 2), in},
			{"rank-3 input", New(1, 2, 3, 2), New(2, 6, 4)},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted a %s", name, c.what)
					}
				}()
				pool(c.dst, c.in)
			}()
		}
	}
}

// FuzzMaxPool checks MaxPool2DInto bit for bit against the bounds-checked
// loop on random shapes, kernels, strides and paddings — pad ≥ kernel
// included, so some windows lie wholly in the padding — over inputs laced
// with NaN payloads, ±0 and ±Inf.
func FuzzMaxPool(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(3), uint8(9), uint8(9), uint8(3), uint8(3), uint8(2), uint8(2), uint8(1), uint8(1))
	f.Add(uint64(2), uint8(2), uint8(2), uint8(4), uint8(5), uint8(2), uint8(2), uint8(2), uint8(2), uint8(0), uint8(0))
	f.Add(uint64(3), uint8(1), uint8(1), uint8(3), uint8(2), uint8(2), uint8(1), uint8(1), uint8(3), uint8(4), uint8(2))
	f.Add(uint64(4), uint8(3), uint8(2), uint8(1), uint8(7), uint8(5), uint8(3), uint8(4), uint8(1), uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, n, c, h, w, kh, kw, sh, sw, ph, pw uint8) {
		N, C := int(n%3)+1, int(c%4)+1
		H, W := int(h%12)+1, int(w%12)+1
		KH, KW := int(kh%5)+1, int(kw%5)+1
		SH, SW := int(sh%4)+1, int(sw%4)+1
		PH, PW := int(ph%7), int(pw%7)
		oh, ow := (H+2*PH-KH)/SH+1, (W+2*PW-KW)/SW+1
		if oh < 1 || ow < 1 {
			return
		}
		in := laced(seed, N, C, H, W)
		// Ties decide which of two equal taps wins: draw a third of the
		// taps from a few values so windows hold +0 beside −0, and equal
		// maxima, often.
		r := NewRNG(seed ^ 0x9E3779B97F4A7C15)
		ties := []float32{0, float32(math.Copysign(0, -1)), -1, float32(math.Inf(-1))}
		for i := range in.Data() {
			if r.Intn(3) == 0 {
				in.Data()[i] = ties[r.Intn(len(ties))]
			}
		}
		got, want := New(N, C, oh, ow), New(N, C, oh, ow)
		for i := range got.Data() {
			got.Data()[i] = float32(math.NaN()) // every output must be written
		}
		MaxPool2DInto(got, in, KH, KW, SH, SW, PH, PW)
		maxPoolOracle(want, in, KH, KW, SH, SW, PH, PW)
		expectSameBits(t, fmt.Sprintf("in %v k %dx%d s %dx%d p %dx%d", in.Shape(), KH, KW, SH, SW, PH, PW),
			got.Data(), want.Data())
	})
}

// BenchmarkMaxPool2D times the pool at SqueezeNet's three pooling shapes
// on the served 32×32 input (3×3, stride 2, pad 1), one item each.
func BenchmarkMaxPool2D(b *testing.B) {
	for _, s := range []struct {
		name    string
		c, h, w int
	}{{"pool1", 64, 16, 16}, {"pool3", 128, 8, 8}, {"pool5", 256, 4, 4}} {
		in := randTensor(1, 1, s.c, s.h, s.w)
		out := New(1, s.c, (s.h-1)/2+1, (s.w-1)/2+1)
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MaxPool2DInto(out, in, 3, 3, 2, 2, 1, 1)
			}
		})
	}
}

// BenchmarkConvEpilogue times the fused bias+ReLU scatter against the two
// passes it replaced, at SqueezeNet's fire2.expand3x3 output (64 channels
// on 8×8) for one item and for the four items a batch-8 worker runs.
func BenchmarkConvEpilogue(b *testing.B) {
	const outC, hw = 64, 8
	bias := randTensor(2, outC)
	for _, n := range []int{1, 4} {
		res := randTensor(3, outC*n*hw*hw).Data()
		dst := New(n, outC, hw, hw)
		b.Run(fmt.Sprintf("fused/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scatterGroupColumns(dst, res, bias, true, 0, outC)
			}
		})
		b.Run(fmt.Sprintf("two-pass/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scatterOracle(dst, res, bias, 0, outC)
				reluOracle(dst.Data())
			}
		})
	}
}
