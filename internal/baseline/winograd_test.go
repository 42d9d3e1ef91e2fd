package baseline

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestWinogradMatchesDirectProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		inC, outC := 1+r.Intn(6), 1+r.Intn(6)
		spec := tensor.ConvSpec{InC: inC, OutC: outC, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: r.Intn(2), PadW: r.Intn(2)}
		h := 3 + r.Intn(8)
		w := 3 + r.Intn(8)
		wt := tensor.New(spec.WeightShape()...)
		tensor.FillGaussian(wt, r, 0.3)
		bias := tensor.New(outC)
		tensor.FillGaussian(bias, r, 0.1)
		l, err := NewConvWinograd(wt, bias, spec)
		if err != nil {
			return false
		}
		in := tensor.New(1+r.Intn(2), inC, h, w)
		tensor.FillGaussian(in, r, 1)
		got := l.Forward(in)
		want := tensor.Conv2D(in, wt, bias, spec)
		return tensor.AllClose(got, want, 1e-3, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWinogradOddOutputExtent(t *testing.T) {
	// 5x5 input, pad 1 → 5x5 output: the last tile row/col is partial.
	r := tensor.NewRNG(2)
	spec := tensor.ConvSpec{InC: 2, OutC: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	wt := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(wt, r, 0.3)
	l, err := NewConvWinograd(wt, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 2, 5, 5)
	tensor.FillGaussian(in, r, 1)
	got := l.Forward(in)
	want := tensor.Conv2D(in, wt, nil, spec)
	if !tensor.AllClose(got, want, 1e-3, 1e-3) {
		t.Fatalf("odd-extent Winograd diverges: %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestWinogradRejectsUnsupported(t *testing.T) {
	wt5 := tensor.New(4, 2, 5, 5)
	if _, err := NewConvWinograd(wt5, nil, tensor.ConvSpec{InC: 2, OutC: 4, KH: 5, KW: 5, StrideH: 1, StrideW: 1}); err == nil {
		t.Fatal("5x5 kernel must be rejected")
	}
	wt3 := tensor.New(4, 2, 3, 3)
	if _, err := NewConvWinograd(wt3, nil, tensor.ConvSpec{InC: 2, OutC: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 2}); err == nil {
		t.Fatal("stride 2 must be rejected")
	}
	wtg := tensor.New(4, 1, 3, 3)
	if _, err := NewConvWinograd(wtg, nil, tensor.ConvSpec{InC: 4, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, Groups: 4}); err == nil {
		t.Fatal("grouped conv must be rejected")
	}
}

func TestWinogradCostBeatsDirectMuls(t *testing.T) {
	// F(2x2,3x3) needs 16/36 ≈ 0.44x the multiplies of direct conv.
	spec := tensor.ConvSpec{InC: 32, OutC: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	c := WinogradCost(spec, 1, 16, 16)
	direct := spec.MACs(1, 16, 16)
	if c.Muls >= direct {
		t.Fatalf("Winograd muls %d should beat direct %d", c.Muls, direct)
	}
	ratio := float64(c.Muls) / float64(direct)
	if ratio < 0.40 || ratio > 0.50 {
		t.Fatalf("mul ratio %.3f, want ≈ 16/36 = 0.444", ratio)
	}
}

func TestFilterTransformIdentity(t *testing.T) {
	// A centered delta filter transforms to the B-transform of a constant
	// response: conv with delta = identity, so winograd(y) must equal x.
	r := tensor.NewRNG(3)
	spec := tensor.ConvSpec{InC: 1, OutC: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	wt := tensor.New(1, 1, 3, 3)
	wt.Set(1, 0, 0, 1, 1)
	l, err := NewConvWinograd(wt, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 1, 8, 8)
	tensor.FillGaussian(in, r, 1)
	out := l.Forward(in)
	if !tensor.AllClose(out, in, 1e-4, 1e-4) {
		t.Fatalf("delta filter should reproduce input: %v", tensor.MaxAbsDiff(out, in))
	}
}
