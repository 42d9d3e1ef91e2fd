package tensor

import (
	"testing"
)

func gaussTensor(rng *RNG, dims ...int) *Tensor {
	t := New(dims...)
	FillGaussian(t, rng, 1)
	return t
}

func tileSpecs() []ConvSpec {
	return []ConvSpec{
		{InC: 1, OutC: 6, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
		{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{InC: 4, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2},
		{InC: 2, OutC: 5, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
	}
}

// TestConv2DWindowMatchesFull checks that every window of the conv output,
// including ragged edge windows, reproduces the full kernel bit-for-bit.
func TestConv2DWindowMatchesFull(t *testing.T) {
	rng := NewRNG(7)
	for _, spec := range tileSpecs() {
		in := gaussTensor(rng, 2, spec.InC, 11, 13)
		w := gaussTensor(rng, spec.WeightShape()...)
		bias := gaussTensor(rng, spec.OutC)
		full := Conv2D(in, w, bias, spec)
		oh, ow := spec.OutDims(11, 13)
		for _, win := range [][4]int{{0, oh, 0, ow}, {0, 3, 0, 3}, {oh - 2, oh, ow - 3, ow}, {1, 4, 2, 5}} {
			oy0, oy1, ox0, ox1 := win[0], win[1], win[2], win[3]
			th, tw := oy1-oy0, ox1-ox0
			tile := make([]float32, spec.OutC*th*tw)
			for b := 0; b < 2; b++ {
				Conv2DWindowIntoPar(tile, in, w, bias, spec, b, oy0, oy1, ox0, ox1, nil)
				for oc := 0; oc < spec.OutC; oc++ {
					for oy := oy0; oy < oy1; oy++ {
						for ox := ox0; ox < ox1; ox++ {
							want := full.Data()[((b*spec.OutC+oc)*oh+oy)*ow+ox]
							got := tile[(oc*th+(oy-oy0))*tw+(ox-ox0)]
							if got != want {
								t.Fatalf("spec %+v window %v b%d oc%d (%d,%d): got %v want %v",
									spec, win, b, oc, oy, ox, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestConv2DWindowParMatchesSerial checks shard-count invariance of the
// windowed conv.
func TestConv2DWindowParMatchesSerial(t *testing.T) {
	spec := ConvSpec{InC: 3, OutC: 7, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	rng := NewRNG(8)
	in := gaussTensor(rng, 1, 3, 9, 9)
	w := gaussTensor(rng, spec.WeightShape()...)
	b := gaussTensor(rng, 7)
	serial := make([]float32, 7*9*9)
	Conv2DWindowIntoPar(serial, in, w, b, spec, 0, 0, 9, 0, 9, NewPar(nil, 1))
	par := NewPar(nil, 3)
	sharded := make([]float32, 7*9*9)
	Conv2DWindowIntoPar(sharded, in, w, b, spec, 0, 0, 9, 0, 9, par)
	for i := range serial {
		if serial[i] != sharded[i] {
			t.Fatalf("element %d differs: %v vs %v", i, serial[i], sharded[i])
		}
	}
}

// TestIm2colWindowMatchesFull checks the window lowering against the
// corresponding columns of the full im2col matrix.
func TestIm2colWindowMatchesFull(t *testing.T) {
	rng := NewRNG(9)
	for _, spec := range tileSpecs() {
		spec = spec.Normalize()
		in := gaussTensor(rng, 2, spec.InC, 10, 12)
		oh, ow := spec.OutDims(10, 12)
		icg := spec.InC / spec.Groups
		rows := icg * spec.KH * spec.KW
		for g := 0; g < spec.Groups; g++ {
			fullM := Im2colGroup(in, 1, g, spec)
			oy0, oy1, ox0, ox1 := 1, oh-1, 2, ow-2
			if oy1 <= oy0 || ox1 <= ox0 {
				continue
			}
			th, tw := oy1-oy0, ox1-ox0
			dst := make([]float32, rows*th*tw)
			Im2colWindowIntoPar(dst, in, 1, g, spec, oy0, oy1, ox0, ox1, nil)
			for r := 0; r < rows; r++ {
				for oy := oy0; oy < oy1; oy++ {
					for ox := ox0; ox < ox1; ox++ {
						want := fullM.Data()[r*oh*ow+oy*ow+ox]
						got := dst[r*th*tw+(oy-oy0)*tw+(ox-ox0)]
						if got != want {
							t.Fatalf("spec %+v g%d row %d (%d,%d): got %v want %v", spec, g, r, oy, ox, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPoolWindowFromTileMatchesFull feeds a conv-output tensor through the
// tile-reading pool kernels window by window and compares against the
// whole-tensor pools, including padded pools whose corner windows tap only
// padding.
func TestPoolWindowFromTileMatchesFull(t *testing.T) {
	rng := NewRNG(10)
	in := gaussTensor(rng, 2, 3, 9, 9)
	type pool struct{ kh, kw, sh, sw, ph, pw int }
	for _, pl := range []pool{{2, 2, 2, 2, 0, 0}, {3, 3, 2, 2, 1, 1}, {2, 2, 2, 2, 2, 2}} {
		wantMax := MaxPool2D(in, pl.kh, pl.kw, pl.sh, pl.sw, pl.ph, pl.pw)
		wantAvg := AvgPool2D(in, pl.kh, pl.kw, pl.sh, pl.sw, pl.ph, pl.pw)
		oh, ow := wantMax.Dim(2), wantMax.Dim(3)
		gotMax := New(wantMax.Shape()...)
		gotAvg := New(wantAvg.Shape()...)
		// Cover the pool output in 2x3 windows; back each with the exact
		// conv sub-tile its in-bounds taps need.
		for b := 0; b < 2; b++ {
			for py0 := 0; py0 < oh; py0 += 2 {
				for px0 := 0; px0 < ow; px0 += 3 {
					py1, px1 := min(py0+2, oh), min(px0+3, ow)
					cy0, cy1 := clampRange(py0, py1, pl.sh, pl.ph, pl.kh, 9)
					cx0, cx1 := clampRange(px0, px1, pl.sw, pl.pw, pl.kw, 9)
					th, tw := cy1-cy0, cx1-cx0
					tile := make([]float32, 3*th*tw)
					for ch := 0; ch < 3; ch++ {
						for iy := cy0; iy < cy1; iy++ {
							for ix := cx0; ix < cx1; ix++ {
								tile[(ch*th+(iy-cy0))*tw+(ix-cx0)] = in.Data()[((b*3+ch)*9+iy)*9+ix]
							}
						}
					}
					pw := PoolWindow{
						KH: pl.kh, KW: pl.kw, StrideH: pl.sh, StrideW: pl.sw,
						PadH: pl.ph, PadW: pl.pw, InH: 9, InW: 9,
						PY0: py0, PY1: py1, PX0: px0, PX1: px1,
						CY0: cy0, CX0: cx0, TH: th, TW: tw,
					}
					MaxPool2DWindowFromTile(gotMax, tile, b, pw)
					AvgPool2DWindowFromTile(gotAvg, tile, b, pw)
				}
			}
		}
		for i := range wantMax.Data() {
			if gotMax.Data()[i] != wantMax.Data()[i] {
				t.Fatalf("pool %+v max element %d: got %v want %v", pl, i, gotMax.Data()[i], wantMax.Data()[i])
			}
			if gotAvg.Data()[i] != wantAvg.Data()[i] {
				t.Fatalf("pool %+v avg element %d: got %v want %v", pl, i, gotAvg.Data()[i], wantAvg.Data()[i])
			}
		}
	}
}

// clampRange mirrors the sched planner's tap-range math for the test.
func clampRange(o0, o1, stride, pad, k, n int) (int, int) {
	lo := o0*stride - pad
	hi := (o1-1)*stride - pad + k
	if lo < 0 {
		lo = 0
	}
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func TestReLUSliceMatchesReLUInto(t *testing.T) {
	rng := NewRNG(11)
	x := gaussTensor(rng, 37)
	want := ReLU(x)
	ReLUSlice(x.Data())
	for i := range want.Data() {
		if x.Data()[i] != want.Data()[i] {
			t.Fatalf("element %d: got %v want %v", i, x.Data()[i], want.Data()[i])
		}
	}
}
