package ipe

import (
	"testing"
	"testing/quick"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func twoMats(r *tensor.RNG, m, k, bits int) []*quant.Quantized {
	qs := make([]*quant.Quantized, 2)
	for i := range qs {
		w := tensor.New(m, k)
		tensor.FillGaussian(w, r, 1)
		qs[i] = quant.Quantize(w, bits, quant.PerTensor)
	}
	return qs
}

func TestEncodeSharedRoundTripsEachMatrix(t *testing.T) {
	r := tensor.NewRNG(1)
	qs := twoMats(r, 12, 48, 4)
	progs, _, err := EncodeShared(qs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 {
		t.Fatalf("got %d programs", len(progs))
	}
	for i, p := range progs {
		if err := p.Validate(); err != nil {
			t.Fatalf("program %d invalid: %v", i, err)
		}
		if err := p.VerifyAgainst(qs[i]); err != nil {
			t.Fatalf("program %d round trip: %v", i, err)
		}
	}
}

func TestEncodeSharedSharesDictionary(t *testing.T) {
	r := tensor.NewRNG(2)
	qs := twoMats(r, 16, 64, 3)
	progs, _, err := EncodeShared(qs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if &progs[0].Pairs[0] != &progs[1].Pairs[0] {
		t.Fatal("programs must alias one dictionary")
	}
}

func TestEncodeSharedSmallerDictThanSeparate(t *testing.T) {
	// Shared encoding must need fewer total dictionary entries than
	// encoding each matrix separately (common pairs merge once).
	r := tensor.NewRNG(3)
	qs := twoMats(r, 24, 96, 3)
	shared, _, err := EncodeShared(qs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var separate int
	for _, q := range qs {
		p, _, err := Encode(q, Config{})
		if err != nil {
			t.Fatal(err)
		}
		separate += p.DictSize()
	}
	if shared[0].DictSize() >= separate {
		t.Fatalf("shared dict %d should beat separate total %d",
			shared[0].DictSize(), separate)
	}
}

func TestEncodeSharedExecutesCorrectlyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		k := 8 + r.Intn(32)
		nMats := 2 + r.Intn(2)
		qs := make([]*quant.Quantized, nMats)
		for i := range qs {
			w := tensor.New(2+r.Intn(8), k)
			tensor.FillGaussian(w, r, 1)
			qs[i] = quant.Quantize(w, 2+r.Intn(4), quant.PerTensor)
		}
		// Force equal bits (EncodeShared requires it).
		for i := range qs {
			qs[i].Bits = qs[0].Bits
		}
		progs, _, err := EncodeShared(qs, Config{MaxDict: 100, MaxDepth: 6, TileSize: 8})
		if err != nil {
			return false
		}
		x := make([]int32, k)
		for i := range x {
			x[i] = int32(r.Intn(100)) - 50
		}
		for i, p := range progs {
			y := make([]int64, p.M)
			p.ExecuteInt(x, y)
			m := qs[i].Shape[0]
			for row := 0; row < m; row++ {
				var want int64
				for j := 0; j < k; j++ {
					want += int64(qs[i].Codes[row*k+j]) * int64(x[j])
				}
				if y[row] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeSharedRejectsMismatchedK(t *testing.T) {
	r := tensor.NewRNG(4)
	a := quant.Quantize(tensor.New(4, 8), 4, quant.PerTensor)
	w := tensor.New(4, 16)
	tensor.FillGaussian(w, r, 1)
	b := quant.Quantize(w, 4, quant.PerTensor)
	if _, _, err := EncodeShared([]*quant.Quantized{a, b}, Config{}); err == nil {
		t.Fatal("mismatched K must be rejected")
	}
}

func TestEncodeSharedRejectsEmpty(t *testing.T) {
	if _, _, err := EncodeShared(nil, Config{}); err == nil {
		t.Fatal("empty input must be rejected")
	}
}

func TestEncodeSharedSingleMatchesEncode(t *testing.T) {
	// Sharing with a single matrix must be equivalent to plain Encode.
	r := tensor.NewRNG(5)
	w := tensor.New(10, 40)
	tensor.FillGaussian(w, r, 1)
	q := quant.Quantize(w, 4, quant.PerTensor)
	ps, _, err := EncodeShared([]*quant.Quantized{q}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Encode(q, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ps[0].DictSize() != p.DictSize() || ps[0].Cost() != p.Cost() {
		t.Fatalf("shared-of-one differs from Encode: dict %d vs %d",
			ps[0].DictSize(), p.DictSize())
	}
}

func TestEncodeConvSharedMatchesReference(t *testing.T) {
	// Depthwise conv with shared dictionary must compute the same result
	// as the reference conv over dequantized weights.
	r := tensor.NewRNG(60)
	spec := tensor.ConvSpec{InC: 16, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1,
		PadH: 1, PadW: 1, Groups: 16}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.3)
	layer, _, err := EncodeConvShared(w, nil, spec, 4, quant.PerTensor, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 16, 8, 8)
	tensor.FillGaussian(in, r, 1)
	got := layer.Forward(in)
	want := tensor.Conv2D(in, quant.Quantize(w, 4, quant.PerTensor).Dequantize(), nil, spec)
	if !tensor.AllClose(got, want, 1e-3, 1e-3) {
		t.Fatalf("shared depthwise conv diverges: %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestEncodeConvSharedReducesWork(t *testing.T) {
	// Grouped conv with several output channels per group: per-group
	// encoding finds repeats only within a group, shared encoding also
	// harvests cross-group repetition, so its total arithmetic (group sums
	// plus ONE dictionary build) must not exceed the separate encodings'.
	r := tensor.NewRNG(61)
	spec := tensor.ConvSpec{InC: 32, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1,
		PadH: 1, PadW: 1, Groups: 8}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.3)
	sep, _, err := EncodeConv(w, nil, spec, 3, quant.PerTensor, Config{})
	if err != nil {
		t.Fatal(err)
	}
	shared, _, err := EncodeConvShared(w, nil, spec, 3, quant.PerTensor, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sepOps int64
	for _, p := range sep.Programs {
		sepOps += p.Cost().Total()
	}
	var sharedOps int64
	for _, p := range shared.Programs {
		c := p.Cost()
		sharedOps += c.Total() - c.DictEntries // dictionary builds once
	}
	sharedOps += int64(shared.Programs[0].DictSize())
	if sharedOps > sepOps {
		t.Fatalf("shared encoding total ops %d exceed separate %d", sharedOps, sepOps)
	}
	// All shared programs alias one dictionary slice.
	for g := 1; g < len(shared.Programs); g++ {
		if len(shared.Programs[g].Pairs) != len(shared.Programs[0].Pairs) {
			t.Fatal("groups do not share the dictionary")
		}
	}
	// Pure depthwise: per-group dicts are empty (one row each, 9 weights —
	// too few for in-group repeats) while sharing still finds the pairs
	// the groups have in common — sharing is the only way any merging
	// happens at all. Craft filters sharing a corner pattern so the
	// cross-group pair is guaranteed.
	dwSpec := tensor.ConvSpec{InC: 32, OutC: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1,
		PadH: 1, PadW: 1, Groups: 32}
	dw := tensor.New(dwSpec.WeightShape()...)
	for g := 0; g < 32; g++ {
		dw.Set(0.5, g, 0, 0, 0)
		dw.Set(0.5, g, 0, 0, 1) // same code at indices {0,1} in every group
		dw.Set(0.1*float32(g%3), g, 0, 2, 2)
	}
	dwSep, _, err := EncodeConv(dw, nil, dwSpec, 2, quant.PerTensor, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range dwSep.Programs {
		if p.DictSize() != 0 {
			t.Fatal("single-row groups cannot merge alone")
		}
	}
	dwShared, _, err := EncodeConvShared(dw, nil, dwSpec, 2, quant.PerTensor, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if dwShared.Programs[0].DictSize() == 0 {
		t.Fatal("shared depthwise encoding should find cross-group pairs")
	}
	// Functional equivalence under sharing.
	in := tensor.New(1, 32, 6, 6)
	tensor.FillGaussian(in, r, 1)
	got := dwShared.Forward(in)
	want := tensor.Conv2D(in, quant.Quantize(dw, 2, quant.PerTensor).Dequantize(), nil, dwSpec)
	if !tensor.AllClose(got, want, 1e-3, 1e-3) {
		t.Fatalf("shared depthwise diverges: %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestEncodeConvSharedGroups1EqualsPlain(t *testing.T) {
	r := tensor.NewRNG(62)
	spec := tensor.ConvSpec{InC: 4, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.3)
	a, _, err := EncodeConvShared(w, nil, spec, 4, quant.PerTensor, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := EncodeConv(w, nil, spec, 4, quant.PerTensor, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Programs[0].DictSize() != b.Programs[0].DictSize() {
		t.Fatal("groups=1 shared encoding should equal plain EncodeConv")
	}
}

func TestDenseLayerForwardInt8(t *testing.T) {
	r := tensor.NewRNG(63)
	w := tensor.New(12, 48)
	tensor.FillGaussian(w, r, 0.2)
	bias := tensor.New(12)
	tensor.FillGaussian(bias, r, 0.1)
	layer, _, err := EncodeDense(w, bias, 4, quant.PerChannel, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(2, 48)
	tensor.FillGaussian(in, r, 1)
	xp := quant.Calibrate([]*tensor.Tensor{in}, 8)
	got := layer.ForwardInt8(in, xp)
	want := layer.Forward(in)
	if !tensor.AllClose(got, want, 0.05, 0.05) {
		t.Fatalf("dense int8 forward diverges: %v", tensor.MaxAbsDiff(got, want))
	}
}
