package tensor

import (
	"testing"

	"repro/internal/parallel"
)

// forcedPar builds a Par over a pool with real helper tokens, so these
// tests exercise cross-goroutine execution even on single-core machines
// (where the shared pool would mostly run shards inline).
func forcedPar(shards int) *Par {
	return NewPar(parallel.NewPool(shards), shards)
}

func randTensor(seed uint64, shape ...int) *Tensor {
	t := New(shape...)
	FillGaussian(t, NewRNG(seed), 1)
	return t
}

func expectBitIdentical(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %v != serial %v (bit-exact required)", name, i, got[i], want[i])
		}
	}
}

// TestConv2DIntoParBitIdentical checks the sharded direct convolution
// against its one-shard run, covering grouped and strided specs.
func TestConv2DIntoParBitIdentical(t *testing.T) {
	specs := []ConvSpec{
		{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 4, OutC: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 4},
	}
	for _, spec := range specs {
		in := randTensor(3, 2, spec.InC, 9, 9)
		w := randTensor(4, spec.WeightShape()...)
		bias := randTensor(5, spec.OutC)
		oh, ow := spec.Normalize().OutDims(9, 9)
		want := New(2, spec.OutC, oh, ow)
		Conv2DIntoPar(want, in, w, bias, spec, forcedPar(1))
		for _, shards := range []int{2, 5, 64} {
			got := New(2, spec.OutC, oh, ow)
			Conv2DIntoPar(got, in, w, bias, spec, forcedPar(shards))
			expectBitIdentical(t, "Conv2DIntoPar", got.Data(), want.Data())
		}
	}
}

// TestConv2DIntoRejectsWrongShapeDst pins the full-shape destination check:
// a dst with the right element count but transposed extents must panic
// instead of silently writing a garbage layout.
func TestConv2DIntoRejectsWrongShapeDst(t *testing.T) {
	spec := ConvSpec{InC: 2, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	in := randTensor(6, 1, 2, 6, 6)
	w := randTensor(7, spec.WeightShape()...)
	// Correct shape is [1 4 6 6]; same element count, wrong layout.
	bad := New(4, 1, 6, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("Conv2DIntoPar accepted a wrong-shaped dst with matching element count")
		}
	}()
	Conv2DIntoPar(bad, in, w, nil, spec, nil)
}

// TestDenseIntoParBitIdentical checks the sharded fully connected kernel
// against its one-shard run, with and without bias.
func TestDenseIntoParBitIdentical(t *testing.T) {
	in := randTensor(8, 3, 50)
	w := randTensor(9, 20, 50)
	bias := randTensor(10, 20)
	for _, b := range []*Tensor{nil, bias} {
		want := New(3, 20)
		DenseIntoPar(want, in, w, b, forcedPar(1))
		for _, shards := range []int{2, 7, 100} {
			got := New(3, 20)
			DenseIntoPar(got, in, w, b, forcedPar(shards))
			expectBitIdentical(t, "DenseIntoPar", got.Data(), want.Data())
		}
	}
}

// TestIm2colGroupIntoParBitIdentical checks the sharded lowering against
// its one-shard run for a grouped spec.
func TestIm2colGroupIntoParBitIdentical(t *testing.T) {
	spec := ConvSpec{InC: 4, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2}
	in := randTensor(11, 2, 4, 7, 7)
	oh, ow := spec.OutDims(7, 7)
	size := (spec.InC / spec.Groups) * spec.KH * spec.KW * oh * ow
	for g := 0; g < spec.Groups; g++ {
		want := make([]float32, size)
		Im2colGroupIntoPar(want, in, 1, g, spec, forcedPar(1))
		for _, shards := range []int{2, 4, 32} {
			got := make([]float32, size)
			Im2colGroupIntoPar(got, in, 1, g, spec, forcedPar(shards))
			expectBitIdentical(t, "Im2colGroupIntoPar", got, want)
		}
	}
}

// TestIm2colGroupColumns checks that the helper returns the im2col matrix
// of every batch element side by side — element b's columns equal its own
// one-element lowering — for 1×1 and general specs at one and two elements,
// that the 1×1 unit-stride unpadded case reads a one-element input in
// place without touching col, and that scatterGroupColumns puts a result
// laid out that way back into NCHW with the bias added.
func TestIm2colGroupColumns(t *testing.T) {
	two := randTensor(12, 2, 6, 5, 7)
	one := From(two.Data()[6*5*7:], 1, 6, 5, 7) // element 1 alone
	for _, spec := range []ConvSpec{
		{InC: 6, OutC: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		{InC: 6, OutC: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1, Groups: 3},
		{InC: 6, OutC: 4, KH: 1, KW: 1, StrideH: 2, StrideW: 1},
		{InC: 6, OutC: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadW: 1},
		{InC: 6, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2},
	} {
		direct := spec.KH == 1 && spec.StrideH == 1 && spec.PadW == 0
		oh, ow := spec.OutDims(5, 7)
		p := oh * ow
		for g := 0; g < spec.Normalize().Groups; g++ {
			want := Im2colGroup(two, 1, g, spec).Data()
			col := make([]float32, len(want))
			got := im2colGroupColumns(col, one, g, spec.Normalize(), forcedPar(2))
			expectBitIdentical(t, "im2colGroupColumns", got, want)
			if inPlace := &got[0] != &col[0]; inPlace != direct {
				t.Fatalf("%+v group %d: in place = %v, want %v", spec, g, inPlace, direct)
			}

			rows := len(want) / p
			col = make([]float32, 2*len(want))
			got = im2colGroupColumns(col, two, g, spec.Normalize(), forcedPar(2))
			if len(got) != 2*rows*p || &got[0] != &col[0] {
				t.Fatalf("%+v group %d: two elements not lowered into col", spec, g)
			}
			for b := 0; b < 2; b++ {
				item := Im2colGroup(two, b, g, spec).Data()
				for r := 0; r < rows; r++ {
					expectBitIdentical(t, "im2colGroupColumns rows", got[(r*2+b)*p:(r*2+b+1)*p], item[r*p:(r+1)*p])
				}
			}
		}

		// Scatter a result matrix whose entry for (element b, channel oc,
		// pixel i) is known, and check it lands at dst[b, g*ocg+oc, i].
		ocg := spec.OutC / spec.Normalize().Groups
		bias := From([]float32{0.5, -1, 2, 4}, 4)
		dst := New(2, spec.OutC, oh, ow)
		for g := 0; g < spec.Normalize().Groups; g++ {
			res := make([]float32, ocg*2*p)
			for i := range res {
				res[i] = float32(i)
			}
			scatterGroupColumns(dst, res, bias, false, g, ocg)
			for oc := 0; oc < ocg; oc++ {
				for b := 0; b < 2; b++ {
					for i := 0; i < p; i++ {
						want := res[(oc*2+b)*p+i] + bias.Data()[g*ocg+oc]
						if got := dst.At(b, g*ocg+oc, i/ow, i%ow); got != want {
							t.Fatalf("%+v scatter g%d oc%d b%d px%d: %v, want %v", spec, g, oc, b, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestParSerialFallbacks pins the serial conventions: a nil Par and a
// one-shard Par both take the closure-free serial path.
func TestParSerialFallbacks(t *testing.T) {
	var nilPar *Par
	if nilPar.Parallel() {
		t.Fatal("nil Par reports Parallel()")
	}
	if nilPar.Shards() != 1 {
		t.Fatalf("nil Par Shards() = %d, want 1", nilPar.Shards())
	}
	one := forcedPar(1)
	if one.Parallel() {
		t.Fatal("one-shard Par reports Parallel()")
	}
	one.SetShards(4)
	if !one.Parallel() || one.Shards() != 4 {
		t.Fatalf("SetShards(4): Parallel()=%v Shards()=%d", one.Parallel(), one.Shards())
	}
	for i := 0; i < 4; i++ {
		if one.Scratch(i) == nil {
			t.Fatalf("shard %d has no scratch after SetShards", i)
		}
		if i > 0 && one.Scratch(i) == one.Scratch(0) {
			t.Fatalf("shards 0 and %d share a scratch", i)
		}
	}
}

// TestParScratchWarmAcrossReset checks Reset keeps the grown backing
// stores (the allocation-free steady-state contract).
func TestParScratchWarmAcrossReset(t *testing.T) {
	p := forcedPar(2)
	p.Scratch(1).Take(1000)
	p.Reset()
	if got := p.Scratch(1).Cap(); got < 1000 {
		t.Fatalf("Reset dropped warm scratch store: cap %d", got)
	}
	if got := p.Scratch(1).Mark(); got != 0 {
		t.Fatalf("Reset left watermark %d", got)
	}
}
