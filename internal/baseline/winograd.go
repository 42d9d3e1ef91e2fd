// Package baseline implements the comparison point of the evaluation that
// is neither an index-pair program nor a reference kernel: Winograd
// F(2x2,3x3) dense convolution. The other baselines run on the IPE
// executors as empty-dictionary programs: the UCNN-style value-factorized
// form (ipe.Factorize, one multiply per distinct weight value but no
// index-pair merging; the delta between it and an encoded program is the
// paper's contribution) and CSR sparse execution (ipe.Sparse, one term per
// nonzero weight, which wins only on zero weights).
package baseline

import (
	"fmt"

	"repro/internal/ipe"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// ConvWinograd executes 3×3 stride-1 convolutions with the Winograd
// F(2×2, 3×3) minimal-filtering algorithm: 16 multiplies per 2×2 output
// tile per channel instead of 36 — the strongest *dense* competitor (the
// algorithm behind cuDNN's fastest 3×3 kernels). It fills the dense slot
// of the comparison where applicable; IPE must beat it on arithmetic at
// low bit-widths to justify the encoding.
type ConvWinograd struct {
	Spec tensor.ConvSpec
	// U holds the transformed filters: [outC][inC][16] in tile-major
	// (4x4 row-major) order.
	U    [][][16]float32
	Bias *tensor.Tensor
}

// NewConvWinograd precomputes the filter transform U = G·g·Gᵀ. Only dense
// (groups == 1) 3×3 stride-1 convolutions are supported; callers fall back
// to direct convolution otherwise.
func NewConvWinograd(w, bias *tensor.Tensor, spec tensor.ConvSpec) (*ConvWinograd, error) {
	spec = spec.Normalize()
	if err := SupportsWinograd(spec); err != nil {
		return nil, err
	}
	if !w.Shape().Equal(spec.WeightShape()) {
		return nil, fmt.Errorf("baseline: weight shape %v != expected %v", w.Shape(), spec.WeightShape())
	}
	l := &ConvWinograd{Spec: spec, Bias: bias}
	l.U = make([][][16]float32, spec.OutC)
	wd := w.Data()
	for oc := 0; oc < spec.OutC; oc++ {
		l.U[oc] = make([][16]float32, spec.InC)
		for ic := 0; ic < spec.InC; ic++ {
			var g [9]float32
			copy(g[:], wd[(oc*spec.InC+ic)*9:(oc*spec.InC+ic)*9+9])
			l.U[oc][ic] = filterTransform(g)
		}
	}
	return l, nil
}

// SupportsWinograd reports why F(2x2,3x3) cannot run spec, or nil when it
// can: spec must be valid and a dense (groups == 1) 3×3 stride-1
// convolution.
func SupportsWinograd(spec tensor.ConvSpec) error {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.KH != 3 || spec.KW != 3 || spec.StrideH != 1 || spec.StrideW != 1 || spec.Groups != 1 {
		return fmt.Errorf("baseline: Winograd F(2x2,3x3) requires dense 3x3 stride-1 conv, got %+v", spec)
	}
	return nil
}

// filterTransform computes G·g·Gᵀ for the 3×3 filter g, with
// G = [[1,0,0],[1/2,1/2,1/2],[1/2,-1/2,1/2],[0,0,1]].
func filterTransform(g [9]float32) [16]float32 {
	// t = G·g  (4x3)
	var t [12]float32
	for c := 0; c < 3; c++ {
		g0, g1, g2 := g[0*3+c], g[1*3+c], g[2*3+c]
		t[0*3+c] = g0
		t[1*3+c] = 0.5 * (g0 + g1 + g2)
		t[2*3+c] = 0.5 * (g0 - g1 + g2)
		t[3*3+c] = g2
	}
	// u = t·Gᵀ (4x4)
	var u [16]float32
	for r := 0; r < 4; r++ {
		t0, t1, t2 := t[r*3+0], t[r*3+1], t[r*3+2]
		u[r*4+0] = t0
		u[r*4+1] = 0.5 * (t0 + t1 + t2)
		u[r*4+2] = 0.5 * (t0 - t1 + t2)
		u[r*4+3] = t2
	}
	return u
}

// inputTransform computes Bᵀ·d·B for a 4×4 input tile d, with
// Bᵀ = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]].
func inputTransform(d [16]float32) [16]float32 {
	var t [16]float32
	for c := 0; c < 4; c++ {
		d0, d1, d2, d3 := d[0*4+c], d[1*4+c], d[2*4+c], d[3*4+c]
		t[0*4+c] = d0 - d2
		t[1*4+c] = d1 + d2
		t[2*4+c] = d2 - d1
		t[3*4+c] = d1 - d3
	}
	var v [16]float32
	for r := 0; r < 4; r++ {
		t0, t1, t2, t3 := t[r*4+0], t[r*4+1], t[r*4+2], t[r*4+3]
		v[r*4+0] = t0 - t2
		v[r*4+1] = t1 + t2
		v[r*4+2] = t2 - t1
		v[r*4+3] = t1 - t3
	}
	return v
}

// outputTransform computes Aᵀ·m·A for the 4×4 elementwise product m, with
// Aᵀ = [[1,1,1,0],[0,1,-1,-1]], yielding the 2×2 output tile.
func outputTransform(m [16]float32) [4]float32 {
	var t [8]float32 // 2x4
	for c := 0; c < 4; c++ {
		m0, m1, m2, m3 := m[0*4+c], m[1*4+c], m[2*4+c], m[3*4+c]
		t[0*4+c] = m0 + m1 + m2
		t[1*4+c] = m1 - m2 - m3
	}
	var y [4]float32
	for r := 0; r < 2; r++ {
		t0, t1, t2, t3 := t[r*4+0], t[r*4+1], t[r*4+2], t[r*4+3]
		y[r*2+0] = t0 + t1 + t2
		y[r*2+1] = t1 - t2 - t3
	}
	return y
}

// Forward runs the Winograd convolution on an NCHW input. Outputs match
// tensor.Conv2D up to float rounding; odd output extents fall back to
// computing the final row/column tiles over zero-padded input (exact).
func (l *ConvWinograd) Forward(in *tensor.Tensor) *tensor.Tensor {
	spec := l.Spec
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	out := tensor.New(n, spec.OutC, oh, ow)
	l.ForwardIntoPar(out, in, tensor.NewPar(nil, 1))
	return out
}

// ForwardIntoPar is Forward writing into a preallocated [n, outC, oh, ow]
// destination (dst must not alias in), sharded over flattened (batch,
// tile-row) units on the given parallelism context, each shard holding its
// private transformed-tile buffer in its scratch (one shard runs serially
// on shard 0's scratch). Tile rows own disjoint output rows and every
// tile's transforms are untouched, so results are bit-identical for any
// shard count. Sharding over tile rows rather than output channels keeps
// each input tile's transform computed once per shard instead of once per
// channel.
func (l *ConvWinograd) ForwardIntoPar(dst, in *tensor.Tensor, par *tensor.Par) {
	metrics.Count(metrics.KernelWinograd)
	spec := l.Spec
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	if dst.NumElements() != n*spec.OutC*oh*ow {
		panic(fmt.Sprintf("baseline: ForwardIntoPar dst %v != [%d %d %d %d]", dst.Shape(), n, spec.OutC, oh, ow))
	}
	nTilesY := (oh + 1) / 2
	units := n * nTilesY
	if par.Parallel() {
		par.For(units, func(shard, lo, hi int) {
			s := par.Scratch(shard)
			mark := s.Mark()
			l.forwardTileRows(dst, in, oh, ow, s.Take(c*16), lo, hi)
			s.Release(mark)
		})
		return
	}
	s := par.Scratch(0)
	mark := s.Mark()
	l.forwardTileRows(dst, in, oh, ow, s.Take(c*16), 0, units)
	s.Release(mark)
}

// forwardTileRows computes the flattened (batch, tile-row) units [lo, hi),
// where unit u covers output rows 2·(u%nTilesY) and 2·(u%nTilesY)+1 of
// batch element u/nTilesY. vTiles is a work buffer of c·16 floats.
func (l *ConvWinograd) forwardTileRows(dst, in *tensor.Tensor, oh, ow int, vTiles []float32, lo, hi int) {
	spec := l.Spec
	c, h, w := in.Dim(1), in.Dim(2), in.Dim(3)
	ind, od := in.Data(), dst.Data()
	nTilesY := (oh + 1) / 2
	nTilesX := (ow + 1) / 2
	for u := lo; u < hi; u++ {
		b, ty := u/nTilesY, u%nTilesY
		for tx := 0; tx < nTilesX; tx++ {
			iy0 := ty*2 - spec.PadH
			ix0 := tx*2 - spec.PadW
			for ic := 0; ic < c; ic++ {
				var d [16]float32
				base := (b*c + ic) * h * w
				for r := 0; r < 4; r++ {
					iy := iy0 + r
					if iy < 0 || iy >= h {
						continue
					}
					for cc := 0; cc < 4; cc++ {
						ix := ix0 + cc
						if ix < 0 || ix >= w {
							continue
						}
						d[r*4+cc] = ind[base+iy*w+ix]
					}
				}
				v := inputTransform(d)
				copy(vTiles[ic*16:ic*16+16], v[:])
			}
			for oc := 0; oc < spec.OutC; oc++ {
				var m [16]float32
				uRow := l.U[oc]
				for ic := 0; ic < c; ic++ {
					u := &uRow[ic]
					v := vTiles[ic*16 : ic*16+16]
					for i := 0; i < 16; i++ {
						m[i] += u[i] * v[i]
					}
				}
				y := outputTransform(m)
				var bv float32
				if l.Bias != nil {
					bv = l.Bias.Data()[oc]
				}
				obase := (b*spec.OutC + oc) * oh * ow
				for r := 0; r < 2; r++ {
					oy := ty*2 + r
					if oy >= oh {
						continue
					}
					for cc := 0; cc < 2; cc++ {
						ox := tx*2 + cc
						if ox >= ow {
							continue
						}
						od[obase+oy*ow+ox] = y[r*2+cc] + bv
					}
				}
			}
		}
	}
}

// WinogradCost returns the per-inference arithmetic cost of running spec
// with F(2x2,3x3) on an input of h×w with batch n: 16 multiplies per
// channel per 2×2 tile, plus the input (32 adds/tile/ic), accumulate (16
// adds/tile/ic) and output (24 adds/tile/oc) transforms. It needs no filter
// transform, so a candidate is ranked without being built.
func WinogradCost(spec tensor.ConvSpec, n, h, w int) ipe.Cost {
	spec = spec.Normalize()
	oh, ow := spec.OutDims(h, w)
	tiles := int64(n) * int64((oh+1)/2) * int64((ow+1)/2)
	ic, oc := int64(spec.InC), int64(spec.OutC)
	return ipe.Cost{
		Muls: tiles * oc * ic * 16,
		Adds: tiles*ic*32 + tiles*oc*ic*16 + tiles*oc*24,
	}
}
