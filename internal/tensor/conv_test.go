package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConvSpecOutDims(t *testing.T) {
	cases := []struct {
		spec   ConvSpec
		h, w   int
		oh, ow int
	}{
		{ConvSpec{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 224, 224, 224, 224},
		{ConvSpec{InC: 3, OutC: 8, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, 224, 224, 112, 112},
		{ConvSpec{InC: 1, OutC: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 5, 7, 5, 7},
		{ConvSpec{InC: 1, OutC: 1, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 56, 56, 28, 28},
	}
	for _, c := range cases {
		oh, ow := c.spec.OutDims(c.h, c.w)
		if oh != c.oh || ow != c.ow {
			t.Errorf("OutDims(%d,%d) = (%d,%d), want (%d,%d)", c.h, c.w, oh, ow, c.oh, c.ow)
		}
	}
}

func TestConvSpecValidate(t *testing.T) {
	good := ConvSpec{InC: 4, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, Groups: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []ConvSpec{
		{InC: 0, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
		{InC: 4, OutC: 8, KH: 0, KW: 3, StrideH: 1, StrideW: 1},
		{InC: 4, OutC: 8, KH: 3, KW: 3, StrideH: 0, StrideW: 1},
		{InC: 4, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: -1},
		{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, Groups: 2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, s)
		}
	}
}

func TestConvSpecMACs(t *testing.T) {
	spec := ConvSpec{InC: 2, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	// 8x8 input, same-padded → 8x8 output; 4*64 outputs * 2*9 taps.
	if got := spec.MACs(1, 8, 8); got != 4*64*18 {
		t.Fatalf("MACs = %d, want %d", got, 4*64*18)
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 1x1x3x3 input convolved with an identity-center 3x3 kernel, pad 1,
	// must reproduce the input.
	in := From([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	w := New(1, 1, 3, 3)
	w.Set(1, 0, 0, 1, 1)
	spec := ConvSpec{InC: 1, OutC: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	out := Conv2D(in, w, nil, spec)
	if MaxAbsDiff(out, in) != 0 {
		t.Fatal("identity kernel must reproduce the input")
	}
}

func TestConv2DSumKernel(t *testing.T) {
	// All-ones 2x2 kernel, stride 2, no pad: each output is a quadrant sum.
	in := From([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1, 1, 4, 4)
	w := New(1, 1, 2, 2).Fill(1)
	spec := ConvSpec{InC: 1, OutC: 1, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	out := Conv2D(in, w, nil, spec)
	want := []float32{1 + 2 + 5 + 6, 3 + 4 + 7 + 8, 9 + 10 + 13 + 14, 11 + 12 + 15 + 16}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("quadrant sums = %v, want %v", out.Data(), want)
		}
	}
}

func TestConv2DBias(t *testing.T) {
	in := New(1, 1, 2, 2).Fill(0)
	w := New(2, 1, 1, 1).Fill(0)
	bias := From([]float32{3, -1}, 2)
	spec := ConvSpec{InC: 1, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	out := Conv2D(in, w, bias, spec)
	if out.At(0, 0, 0, 0) != 3 || out.At(0, 1, 1, 1) != -1 {
		t.Fatal("bias not applied per output channel")
	}
}

func randConvCase(r *RNG) (in, w, bias *Tensor, spec ConvSpec) {
	groups := 1
	if r.Intn(3) == 0 {
		groups = 1 + r.Intn(2)
	}
	icg := 1 + r.Intn(4)
	ocg := 1 + r.Intn(4)
	spec = ConvSpec{
		InC: icg * groups, OutC: ocg * groups,
		KH: 1 + r.Intn(3), KW: 1 + r.Intn(3),
		StrideH: 1 + r.Intn(2), StrideW: 1 + r.Intn(2),
		PadH: r.Intn(2), PadW: r.Intn(2),
		Groups: groups,
	}
	h := spec.KH + r.Intn(6)
	wdim := spec.KW + r.Intn(6)
	n := 1 + r.Intn(2)
	in = New(n, spec.InC, h, wdim)
	FillGaussian(in, r, 1)
	w = New(spec.WeightShape()...)
	FillGaussian(w, r, 1)
	bias = New(spec.OutC)
	FillGaussian(bias, r, 1)
	return in, w, bias, spec
}

func TestConv2DIm2colMatchesDirectProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		in, w, bias, spec := randConvCase(r)
		a := Conv2D(in, w, bias, spec)
		b := Conv2DIm2col(in, w, bias, spec)
		return AllClose(a, b, 1e-4, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2colShape(t *testing.T) {
	spec := ConvSpec{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	in := New(1, 3, 8, 8)
	col := Im2colGroup(in, 0, 0, spec)
	if !col.Shape().Equal(Shape{27, 64}) {
		t.Fatalf("im2col shape = %v, want [27 64]", col.Shape())
	}
}

func TestIm2colZeroPadding(t *testing.T) {
	in := New(1, 1, 2, 2).Fill(1)
	spec := ConvSpec{InC: 1, OutC: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	col := Im2colGroup(in, 0, 0, spec)
	// Top-left output (oy=0, ox=0): kernel tap (0,0) reads (-1,-1) → 0.
	if col.At(0, 0) != 0 {
		t.Fatal("out-of-bounds taps must read as zero")
	}
	// Center tap (ky=1,kx=1) row index 4 at output (0,0) reads in(0,0)=1.
	if col.At(4, 0) != 1 {
		t.Fatal("center tap should read the input value")
	}
}

func TestDepthwiseConv(t *testing.T) {
	// Depthwise: groups == inC == outC. Each channel is convolved with its
	// own 1-channel kernel; channels must not mix.
	spec := ConvSpec{InC: 2, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1, Groups: 2}
	in := New(1, 2, 2, 2)
	in.Set(1, 0, 0, 0, 0)
	in.Set(2, 0, 1, 0, 0)
	w := New(2, 1, 1, 1)
	w.Set(10, 0, 0, 0, 0)
	w.Set(100, 1, 0, 0, 0)
	out := Conv2D(in, w, nil, spec)
	if out.At(0, 0, 0, 0) != 10 || out.At(0, 1, 0, 0) != 200 {
		t.Fatalf("depthwise channels mixed: %v %v", out.At(0, 0, 0, 0), out.At(0, 1, 0, 0))
	}
}

func TestReLU(t *testing.T) {
	in := From([]float32{-2, -0.5, 0, 1, 3}, 5)
	out := ReLU(in)
	want := []float32{0, 0, 0, 1, 3}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("ReLU = %v, want %v", out.Data(), want)
		}
	}
	if in.At(0) != -2 {
		t.Fatal("ReLU must not mutate its input")
	}
}

func TestMaxPool2D(t *testing.T) {
	in := From([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1, 1, 4, 4)
	out := MaxPool2D(in, 2, 2, 2, 2, 0, 0)
	want := []float32{6, 8, 14, 16}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("MaxPool = %v, want %v", out.Data(), want)
		}
	}
}

func TestMaxPool2DPadding(t *testing.T) {
	// With negative inputs and padding, the max must consider only
	// in-bounds elements, never an implicit zero.
	in := New(1, 1, 2, 2).Fill(-5)
	out := MaxPool2D(in, 3, 3, 2, 2, 1, 1)
	for _, v := range out.Data() {
		if v != -5 {
			t.Fatalf("padded max pool leaked a zero: %v", out.Data())
		}
	}
}

func TestAvgPool2D(t *testing.T) {
	in := From([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	out := AvgPool2D(in, 2, 2, 2, 2, 0, 0)
	if out.At(0, 0, 0, 0) != 2.5 {
		t.Fatalf("AvgPool = %v, want 2.5", out.At(0, 0, 0, 0))
	}
}

func TestAvgPool2DExcludesPad(t *testing.T) {
	in := New(1, 1, 2, 2).Fill(4)
	out := AvgPool2D(in, 3, 3, 2, 2, 1, 1)
	// Every window sees only the in-bounds 2x2=4 elements subset; average
	// of all-4s must be 4 when padding is excluded from the divisor.
	for _, v := range out.Data() {
		if v != 4 {
			t.Fatalf("AvgPool with pad should exclude padding: %v", out.Data())
		}
	}
}

func TestGlobalAvgPool2D(t *testing.T) {
	in := From([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	out := GlobalAvgPool2D(in)
	if out.At(0, 0, 0, 0) != 2.5 || out.At(0, 1, 0, 0) != 25 {
		t.Fatalf("GlobalAvgPool = %v", out.Data())
	}
}

func TestBatchNormIdentity(t *testing.T) {
	// gamma=1, beta=0, mean=0, var=1 → identity (up to eps).
	r := NewRNG(5)
	in := New(2, 3, 4, 4)
	FillGaussian(in, r, 1)
	ones := New(3).Fill(1)
	zeros := New(3)
	out := BatchNorm(in, ones, zeros, zeros, ones, 0)
	if !AllClose(out, in, 1e-5, 1e-5) {
		t.Fatal("unit batch norm should be identity")
	}
}

func TestBatchNormAffine(t *testing.T) {
	in := New(1, 1, 1, 2).Fill(3)
	gamma := New(1).Fill(2)
	beta := New(1).Fill(1)
	mean := New(1).Fill(1)
	variance := New(1).Fill(4)
	out := BatchNorm(in, gamma, beta, mean, variance, 0)
	// y = 2*(3-1)/2 + 1 = 3
	for _, v := range out.Data() {
		if math.Abs(float64(v)-3) > 1e-5 {
			t.Fatalf("BatchNorm = %v, want 3", v)
		}
	}
}

func TestDense(t *testing.T) {
	in := From([]float32{1, 2}, 1, 2)
	w := From([]float32{1, 0, 0, 1, 1, 1}, 3, 2)
	bias := From([]float32{0, 0, 10}, 3)
	out := Dense(in, w, bias)
	want := []float32{1, 2, 13}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("Dense = %v, want %v", out.Data(), want)
		}
	}
}

func TestSoftmax(t *testing.T) {
	in := From([]float32{1, 1, 1, 1}, 1, 4)
	out := Softmax(in)
	for _, v := range out.Data() {
		if math.Abs(float64(v)-0.25) > 1e-6 {
			t.Fatalf("uniform softmax = %v", out.Data())
		}
	}
}

func TestSoftmaxSumsToOneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n, k := 1+r.Intn(4), 1+r.Intn(10)
		in := New(n, k)
		FillGaussian(in, r, 10) // large logits stress stability
		out := Softmax(in)
		for b := 0; b < n; b++ {
			var s float64
			for i := 0; i < k; i++ {
				v := float64(out.At(b, i))
				if v < 0 || math.IsNaN(v) {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConvLinearityProperty(t *testing.T) {
	// conv(a*x, w) == a * conv(x, w) for bias-free convolution.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		in, w, _, spec := randConvCase(r)
		scaled := in.Clone().Scale(2)
		left := Conv2D(scaled, w, nil, spec)
		right := Conv2D(in, w, nil, spec).Scale(2)
		return AllClose(left, right, 1e-4, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
