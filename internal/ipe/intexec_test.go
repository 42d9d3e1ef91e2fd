package ipe

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func TestQuantizeActivationsClamps(t *testing.T) {
	p := quant.Params{Scale: 1}
	codes := QuantizeActivations([]float32{-1000, -1, 0, 1, 1000}, p, 8)
	want := []int32{-127, -1, 0, 1, 127}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("codes = %v, want %v", codes, want)
		}
	}
}

func TestQuantizeActivationsZeroScale(t *testing.T) {
	codes := QuantizeActivations([]float32{1, 2}, quant.Params{}, 8)
	for _, c := range codes {
		if c != 0 {
			t.Fatal("zero scale must map everything to 0, not divide by zero")
		}
	}
}

func TestExecuteQuantizedTracksFloatProperty(t *testing.T) {
	// The integer path must agree with the float path within the
	// activation quantization error bound.
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		q := randQuant(r, 12, 40, 4, 0)
		prog, _, err := Encode(q, DefaultConfig())
		if err != nil {
			return false
		}
		k := prog.K
		x := make([]float32, k)
		for i := range x {
			x[i] = float32(r.NormFloat64())
		}
		xp := quant.Calibrate([]*tensor.Tensor{tensor.From(x, k)}, 8)
		yInt := make([]float32, prog.M)
		prog.ExecuteQuantized(x, yInt, xp, 8)
		yFloat := execVector(prog, x)
		// Error bound: per-element activation error ≤ scale/2, times the
		// sum of |dequantized weights| of the row.
		deq := q.Dequantize().Data()
		for row := 0; row < prog.M; row++ {
			var wsum float64
			for i := 0; i < k; i++ {
				wsum += math.Abs(float64(deq[row*k+i]))
			}
			bound := float64(xp.Scale)/2*wsum*1.01 + 1e-4
			if d := math.Abs(float64(yInt[row] - yFloat[row])); d > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardInt8MatchesFloatForward(t *testing.T) {
	r := tensor.NewRNG(40)
	spec := tensor.ConvSpec{InC: 4, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.2)
	bias := tensor.New(spec.OutC)
	tensor.FillGaussian(bias, r, 0.1)
	layer, _, err := EncodeConv(w, bias, spec, 4, quant.PerChannel, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 4, 8, 8)
	tensor.FillGaussian(in, r, 1)
	xp := quant.Calibrate([]*tensor.Tensor{in}, 8)
	got := layer.ForwardInt8(in, xp)
	want := layer.Forward(in)
	// 8-bit activations keep the outputs close on this scale.
	if !tensor.AllClose(got, want, 0.05, 0.05) {
		t.Fatalf("int8 forward diverges from float: %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestForwardInt8Grouped(t *testing.T) {
	r := tensor.NewRNG(41)
	spec := tensor.ConvSpec{InC: 6, OutC: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 3}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.3)
	layer, _, err := EncodeConv(w, nil, spec, 4, quant.PerTensor, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 6, 6, 6)
	tensor.FillGaussian(in, r, 1)
	xp := quant.Calibrate([]*tensor.Tensor{in}, 8)
	got := layer.ForwardInt8(in, xp)
	want := layer.Forward(in)
	if !tensor.AllClose(got, want, 0.05, 0.05) {
		t.Fatalf("grouped int8 forward diverges: %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestRowScaleRecovery(t *testing.T) {
	q := &quant.Quantized{
		Codes:  []int32{3, 0, -2, 0},
		Shape:  tensor.Shape{2, 2},
		Bits:   4,
		Scheme: quant.PerChannel,
		Params: []quant.Params{{Scale: 0.5}, {Scale: 0.25}},
	}
	prog, _, err := Encode(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.RowScale(0); got != 0.5 {
		t.Fatalf("RowScale(0) = %v, want 0.5", got)
	}
	if got := prog.RowScale(1); got != 0.25 {
		t.Fatalf("RowScale(1) = %v, want 0.25", got)
	}
}

func TestExecuteQuantizedAsymMatchesFloat(t *testing.T) {
	// Post-ReLU (non-negative) activations: the asymmetric path should
	// track the float path at least as well as the symmetric one, using
	// the zero-point correction.
	r := tensor.NewRNG(70)
	q := randQuant(r, 12, 40, 4, 0)
	prog, _, err := Encode(q, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, prog.K)
	for i := range x {
		v := float32(r.NormFloat64())
		if v < 0 {
			v = 0 // ReLU-style input
		}
		x[i] = v
	}
	xp := quant.CalibrateAsym([]*tensor.Tensor{tensor.From(x, prog.K)}, 8)
	rowSums := prog.RowCodeSums()
	yAsym := make([]float32, prog.M)
	prog.ExecuteQuantizedAsym(x, yAsym, xp, 8, rowSums)
	yFloat := execVector(prog, x)
	deq := q.Dequantize().Data()
	for row := 0; row < prog.M; row++ {
		var wsum float64
		for i := 0; i < prog.K; i++ {
			wsum += absf(float64(deq[row*prog.K+i]))
		}
		bound := float64(xp.Scale)/2*wsum*1.01 + 1e-4
		if d := absf(float64(yAsym[row] - yFloat[row])); d > bound {
			t.Fatalf("row %d: asym error %v exceeds bound %v", row, d, bound)
		}
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestRowCodeSums(t *testing.T) {
	q := qm([]int32{
		2, 2, 0, -1,
		0, 3, 3, 3,
	}, 2, 4)
	prog, _, err := Encode(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sums := prog.RowCodeSums()
	// Row 0: 2+2-1 = 3; row 1: 3·3 = 9.
	if sums[0] != 3 || sums[1] != 9 {
		t.Fatalf("RowCodeSums = %v, want [3 9]", sums)
	}
}
