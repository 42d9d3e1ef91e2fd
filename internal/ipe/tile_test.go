package ipe

import (
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// TestForwardWindowMatchesForward checks that windowed IPE conv execution
// reproduces the whole-layer forward pass bit-for-bit on every window of a
// covering grid, for plain and grouped layers.
func TestForwardWindowMatchesForward(t *testing.T) {
	specs := []tensor.ConvSpec{
		{InC: 1, OutC: 6, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
		{InC: 4, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2},
	}
	rng := tensor.NewRNG(21)
	for _, spec := range specs {
		w := tensor.New(spec.WeightShape()...)
		tensor.FillGaussian(w, rng, 1)
		bias := tensor.New(spec.OutC)
		tensor.FillGaussian(bias, rng, 1)
		layer, _, err := EncodeConv(w, bias, spec, 4, quant.PerChannel, DefaultConfig())
		if err != nil {
			t.Fatalf("EncodeConv: %v", err)
		}
		in := tensor.New(2, spec.InC, 12, 12)
		tensor.FillGaussian(in, rng, 1)
		want := layer.Forward(in)
		oh, ow := spec.OutDims(12, 12)

		serial := tensor.NewPar(nil, 1)
		for b := 0; b < 2; b++ {
			for oy0 := 0; oy0 < oh; oy0 += 5 {
				for ox0 := 0; ox0 < ow; ox0 += 7 {
					oy1, ox1 := min(oy0+5, oh), min(ox0+7, ow)
					th, tw := oy1-oy0, ox1-ox0
					tile := make([]float32, spec.OutC*th*tw)
					layer.ForwardWindowIntoPar(tile, in, b, oy0, oy1, ox0, ox1, serial)
					for oc := 0; oc < spec.OutC; oc++ {
						for oy := oy0; oy < oy1; oy++ {
							for ox := ox0; ox < ox1; ox++ {
								wv := want.Data()[((b*spec.OutC+oc)*oh+oy)*ow+ox]
								gv := tile[(oc*th+(oy-oy0))*tw+(ox-ox0)]
								if gv != wv {
									t.Fatalf("spec %+v b%d oc%d (%d,%d): got %v want %v", spec, b, oc, oy, ox, gv, wv)
								}
							}
						}
					}

					// The sharded variant must agree bit-for-bit too.
					par := tensor.NewPar(nil, 3)
					tile2 := make([]float32, spec.OutC*th*tw)
					layer.ForwardWindowIntoPar(tile2, in, b, oy0, oy1, ox0, ox1, par)
					for i := range tile {
						if tile[i] != tile2[i] {
							t.Fatalf("sharded window differs at %d: %v vs %v", i, tile[i], tile2[i])
						}
					}
				}
			}
		}
	}
}
