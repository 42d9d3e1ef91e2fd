package tensor

import "fmt"

// Window-restricted kernels backing the fused-region executor (DESIGN.md
// §10). Each evaluates only a rectangular sub-window of a layer's output —
// a conv tile into a compact scratch buffer, or a pool tile reading back
// from such a buffer — with the *same per-element tap order and
// accumulation arithmetic* as the whole-layer kernels in conv.go. Every
// output element touches exactly the operands it touches in the unfused
// kernel, so tiled execution is bit-identical, which the conformance
// harness enforces.

// Conv2DWindowIntoPar computes the direct-convolution output window rows
// [oy0,oy1) × cols [ox0,ox1) of batch element b into tile, laid out
// [outC, oy1-oy0, ox1-ox0], sharded over output channels. An empty window
// is a no-op. Each element equals the corresponding Conv2DIntoPar output
// bit-for-bit.
func Conv2DWindowIntoPar(tile []float32, in, weight, bias *Tensor, spec ConvSpec, b, oy0, oy1, ox0, ox1 int, par *Par) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	if c != spec.InC {
		panic(fmt.Sprintf("tensor: Conv2DWindow input channels %d != spec.InC %d", c, spec.InC))
	}
	if b < 0 || b >= n {
		panic(fmt.Sprintf("tensor: Conv2DWindow batch %d out of %d", b, n))
	}
	oh, ow := spec.OutDims(h, w)
	if oy0 < 0 || oy1 > oh || ox0 < 0 || ox1 > ow {
		panic(fmt.Sprintf("tensor: Conv2DWindow [%d,%d)x[%d,%d) outside %dx%d", oy0, oy1, ox0, ox1, oh, ow))
	}
	if oy1 <= oy0 || ox1 <= ox0 {
		return
	}
	th, tw := oy1-oy0, ox1-ox0
	if len(tile) < spec.OutC*th*tw {
		panic(fmt.Sprintf("tensor: Conv2DWindow tile %d < %d", len(tile), spec.OutC*th*tw))
	}
	if par.Parallel() {
		par.For(spec.OutC, func(shard, lo, hi int) {
			conv2DWindowUnits(tile, in, weight, bias, spec, b, oy0, oy1, ox0, ox1, lo, hi)
		})
		return
	}
	conv2DWindowUnits(tile, in, weight, bias, spec, b, oy0, oy1, ox0, ox1, 0, spec.OutC)
}

// conv2DWindowUnits computes output channels [lo, hi) of a conv window —
// the window-restricted counterpart of conv2DUnits, with the identical
// accumulation loop.
func conv2DWindowUnits(tile []float32, in, weight, bias *Tensor, spec ConvSpec, b, oy0, oy1, ox0, ox1, lo, hi int) {
	c, h, w := in.Dim(1), in.Dim(2), in.Dim(3)
	icg := spec.InC / spec.Groups
	ocg := spec.OutC / spec.Groups
	th, tw := oy1-oy0, ox1-ox0
	ind, wd := in.Data(), weight.Data()
	for oc := lo; oc < hi; oc++ {
		g := oc / ocg
		var bv float32
		if bias != nil {
			bv = bias.Data()[oc]
		}
		for oy := oy0; oy < oy1; oy++ {
			for ox := ox0; ox < ox1; ox++ {
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
				tile[(oc*th+(oy-oy0))*tw+(ox-ox0)] = acc
			}
		}
	}
}

// Im2colWindowIntoPar lowers group g of batch element b restricted to the
// conv output window [oy0,oy1)×[ox0,ox1) into dst, a matrix of shape
// [icg*kH*kW, (oy1-oy0)*(ox1-ox0)], sharded over rows. Column j of the
// matrix is window pixel (oy0 + j/tw, ox0 + j%tw), so a GEMM against it
// yields the same per-column dot products as the full lowering.
func Im2colWindowIntoPar(dst []float32, in *Tensor, b, g int, spec ConvSpec, oy0, oy1, ox0, ox1 int, par *Par) {
	spec = spec.Normalize()
	h, w := in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	if oy0 < 0 || oy1 > oh || ox0 < 0 || ox1 > ow {
		panic(fmt.Sprintf("tensor: Im2colWindow [%d,%d)x[%d,%d) outside %dx%d", oy0, oy1, ox0, ox1, oh, ow))
	}
	if oy1 <= oy0 || ox1 <= ox0 {
		return
	}
	icg := spec.InC / spec.Groups
	rows := icg * spec.KH * spec.KW
	th, tw := oy1-oy0, ox1-ox0
	if len(dst) < rows*th*tw {
		panic(fmt.Sprintf("tensor: Im2colWindow dst %d < %d", len(dst), rows*th*tw))
	}
	if par.Parallel() {
		par.For(rows, func(shard, lo, hi int) {
			im2colWindowRows(dst, in, b, g, spec, oy0, oy1, ox0, ox1, lo, hi)
		})
		return
	}
	im2colWindowRows(dst, in, b, g, spec, oy0, oy1, ox0, ox1, 0, rows)
}

// im2colWindowRows lowers window matrix rows [lo, hi); row r unpacks to
// (ic, ky, kx) exactly as im2colRows.
func im2colWindowRows(dst []float32, in *Tensor, b, g int, spec ConvSpec, oy0, oy1, ox0, ox1, lo, hi int) {
	c, h, w := in.Dim(1), in.Dim(2), in.Dim(3)
	icg := spec.InC / spec.Groups
	th, tw := oy1-oy0, ox1-ox0
	ind := in.Data()
	for row := lo; row < hi; row++ {
		kx := row % spec.KW
		ky := (row / spec.KW) % spec.KH
		ic := row / (spec.KW * spec.KH)
		cIn := g*icg + ic
		out := dst[row*th*tw:]
		for oy := oy0; oy < oy1; oy++ {
			iy := oy*spec.StrideH - spec.PadH + ky
			for ox := ox0; ox < ox1; ox++ {
				ix := ox*spec.StrideW - spec.PadW + kx
				var v float32
				if iy >= 0 && iy < h && ix >= 0 && ix < w {
					v = ind[((b*c+cIn)*h+iy)*w+ix]
				}
				out[(oy-oy0)*tw+(ox-ox0)] = v
			}
		}
	}
}

// PoolWindow locates a pool-output tile and the conv-output tile backing
// it for the *FromTile pooling kernels. All coordinates are half-open.
type PoolWindow struct {
	KH, KW           int // pool kernel
	StrideH, StrideW int
	PadH, PadW       int
	InH, InW         int // full pool-input (conv output) spatial dims
	PY0, PY1         int // pool output rows to compute
	PX0, PX1         int // pool output cols to compute
	CY0, CX0         int // tile origin in pool-input coordinates
	TH, TW           int // tile extents
}

// MaxPool2DWindowFromTile computes pool outputs [PY0,PY1)×[PX0,PX1) of
// batch element b from a conv-output tile (layout [c, TH, TW], pool-input
// window origin CY0/CX0), writing them at their global coordinates in dst
// ([n, c, poolOH, poolOW]). Taps are bounds-checked against the *full*
// pool-input dims in the same ky,kx order as MaxPool2DInto, so each output
// is bit-identical to the unfused kernel; every in-bounds tap must lie
// inside the tile (the sched planner guarantees this, and the kernel
// panics otherwise).
func MaxPool2DWindowFromTile(dst *Tensor, tile []float32, b int, pw PoolWindow) {
	n, c, oh, ow := dst.Dim(0), dst.Dim(1), dst.Dim(2), dst.Dim(3)
	if b < 0 || b >= n {
		panic(fmt.Sprintf("tensor: MaxPoolWindow batch %d out of %d", b, n))
	}
	od := dst.Data()
	for ch := 0; ch < c; ch++ {
		base := ch * pw.TH * pw.TW
		for oy := pw.PY0; oy < pw.PY1; oy++ {
			for ox := pw.PX0; ox < pw.PX1; ox++ {
				best := float32(0)
				first := true
				for ky := 0; ky < pw.KH; ky++ {
					iy := oy*pw.StrideH - pw.PadH + ky
					if iy < 0 || iy >= pw.InH {
						continue
					}
					for kx := 0; kx < pw.KW; kx++ {
						ix := ox*pw.StrideW - pw.PadW + kx
						if ix < 0 || ix >= pw.InW {
							continue
						}
						v := tile[base+tileIndex(pw, iy, ix)]
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

// AvgPool2DWindowFromTile is the average-pooling counterpart of
// MaxPool2DWindowFromTile (count_include_pad = false, like AvgPool2DInto).
func AvgPool2DWindowFromTile(dst *Tensor, tile []float32, b int, pw PoolWindow) {
	n, c, oh, ow := dst.Dim(0), dst.Dim(1), dst.Dim(2), dst.Dim(3)
	if b < 0 || b >= n {
		panic(fmt.Sprintf("tensor: AvgPoolWindow batch %d out of %d", b, n))
	}
	od := dst.Data()
	for ch := 0; ch < c; ch++ {
		base := ch * pw.TH * pw.TW
		for oy := pw.PY0; oy < pw.PY1; oy++ {
			for ox := pw.PX0; ox < pw.PX1; ox++ {
				var sum float32
				cnt := 0
				for ky := 0; ky < pw.KH; ky++ {
					iy := oy*pw.StrideH - pw.PadH + ky
					if iy < 0 || iy >= pw.InH {
						continue
					}
					for kx := 0; kx < pw.KW; kx++ {
						ix := ox*pw.StrideW - pw.PadW + kx
						if ix < 0 || ix >= pw.InW {
							continue
						}
						sum += tile[base+tileIndex(pw, iy, ix)]
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

// tileIndex maps a global pool-input coordinate to its tile offset,
// panicking if the coordinate lies outside the tile — that would mean the
// tile plan's conv window missed a tap.
func tileIndex(pw PoolWindow, iy, ix int) int {
	ty, tx := iy-pw.CY0, ix-pw.CX0
	if ty < 0 || ty >= pw.TH || tx < 0 || tx >= pw.TW {
		panic(fmt.Sprintf("tensor: pool tap (%d,%d) outside tile at (%d,%d) %dx%d", iy, ix, pw.CY0, pw.CX0, pw.TH, pw.TW))
	}
	return ty*pw.TW + tx
}

// ReLUSlice applies the rectifier in place to a raw kernel buffer, matching
// ReLUInto element for element.
func ReLUSlice(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}
