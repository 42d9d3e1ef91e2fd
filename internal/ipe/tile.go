package ipe

import (
	"fmt"

	"repro/internal/tensor"
)

// Window-restricted forward passes backing the fused-region executor. The
// conv output window of one batch element is evaluated into a compact
// [outC, th, tw] tile: the im2col lowering is restricted to the window's
// columns and the encoded program runs over exactly those columns. The
// compiled matrix executor accumulates each output column independently
// (per-column scratch lanes), so every tile element is bit-identical to the
// corresponding element of a whole-layer ForwardIntoPar — the property the
// conformance harness checks for the tiled path.

// ForwardWindowIntoPar evaluates the conv output window rows [oy0,oy1) ×
// cols [ox0,ox1) of batch element b into tile ([outC, oy1-oy0, ox1-ox0]),
// with the im2col lowering and program execution sharded on the
// parallelism context; staging buffers come from shard 0's scratch, exactly
// like ForwardIntoPar. An empty window is a no-op. tile may come from shard
// 0's scratch only if taken before the call. Results are bit-identical for
// any shard count.
func (l *ConvLayer) ForwardWindowIntoPar(tile []float32, in *tensor.Tensor, b, oy0, oy1, ox0, ox1 int, par *tensor.Par) {
	spec := l.Spec
	icg := spec.InC / spec.Groups
	ocg := spec.OutC / spec.Groups
	thw := l.checkWindow(tile, in, oy0, oy1, ox0, ox1)
	if thw == 0 {
		return
	}
	s0 := par.Scratch(0)
	mark := s0.Mark()
	col := s0.Take(icg * spec.KH * spec.KW * thw)
	res := s0.Take(ocg * thw)
	for g := 0; g < spec.Groups; g++ {
		tensor.Im2colWindowIntoPar(col, in, b, g, spec, oy0, oy1, ox0, ox1, par)
		l.Programs[g].Compiled().ExecuteMatrixIntoPar(res, col, thw, par)
		l.addBiasTile(tile, res, g, ocg, thw)
	}
	s0.Release(mark)
}

// checkWindow validates the window against the layer and tile buffer and
// returns the window's pixel count (0 when empty).
func (l *ConvLayer) checkWindow(tile []float32, in *tensor.Tensor, oy0, oy1, ox0, ox1 int) int {
	spec := l.Spec
	h, w := in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	if oy0 < 0 || oy1 > oh || ox0 < 0 || ox1 > ow {
		panic(fmt.Sprintf("ipe: ForwardWindow [%d,%d)x[%d,%d) outside %dx%d", oy0, oy1, ox0, ox1, oh, ow))
	}
	if oy1 <= oy0 || ox1 <= ox0 {
		return 0
	}
	thw := (oy1 - oy0) * (ox1 - ox0)
	if len(tile) < spec.OutC*thw {
		panic(fmt.Sprintf("ipe: ForwardWindow tile %d < %d", len(tile), spec.OutC*thw))
	}
	return thw
}

// addBiasTile copies group g's [ocg, thw] result block into the tile's
// channel planes, adding the per-channel bias — addBias with the tile's
// single-image layout.
func (l *ConvLayer) addBiasTile(tile, res []float32, g, ocg, thw int) {
	for oc := 0; oc < ocg; oc++ {
		dst := tile[(g*ocg+oc)*thw : (g*ocg+oc+1)*thw]
		src := res[oc*thw : (oc+1)*thw]
		var bv float32
		if l.Bias != nil {
			bv = l.Bias.Data()[g*ocg+oc]
		}
		for i, v := range src {
			dst[i] = v + bv
		}
	}
}
