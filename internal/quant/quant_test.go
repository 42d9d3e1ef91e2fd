package quant

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestQuantizeRoundTripErrorBound(t *testing.T) {
	r := tensor.NewRNG(1)
	w := tensor.New(16, 8, 3, 3)
	tensor.FillGaussian(w, r, 0.1)
	for _, bits := range []int{2, 4, 8, 16} {
		q := Quantize(w, bits, PerTensor)
		// Max error of symmetric uniform quantization is scale/2, padded
		// slightly for float32 rounding in the scale itself.
		bound := float64(q.Params[0].Scale)/2*1.001 + 1e-7
		if err := tensor.MaxAbsDiff(q.Dequantize(), w); err > bound {
			t.Errorf("bits=%d: quant error %v exceeds scale/2 bound %v", bits, err, bound)
		}
	}
}

func TestQuantizeCodesWithinRange(t *testing.T) {
	r := tensor.NewRNG(2)
	w := tensor.New(4, 4)
	tensor.FillGaussian(w, r, 1)
	for _, bits := range []int{1, 2, 3, 4, 8} {
		q := Quantize(w, bits, PerTensor)
		qmax := int32(1<<(bits-1)) - 1
		if qmax == 0 {
			qmax = 1
		}
		for _, c := range q.Codes {
			if c > qmax || c < -qmax {
				t.Fatalf("bits=%d: code %d outside [−%d, %d]", bits, c, qmax, qmax)
			}
		}
	}
}

func TestQuantizeDistinctValuesBounded(t *testing.T) {
	r := tensor.NewRNG(3)
	w := tensor.New(64, 64)
	tensor.FillGaussian(w, r, 1)
	for _, bits := range []int{2, 3, 4} {
		q := Quantize(w, bits, PerTensor)
		if dv := q.DistinctValues(); dv > 1<<bits {
			t.Errorf("bits=%d: %d distinct values > %d levels", bits, dv, 1<<bits)
		}
	}
}

func TestQuantizePreservesZeros(t *testing.T) {
	w := tensor.From([]float32{0, 1, 0, -1, 0, 0.5}, 6)
	q := Quantize(w, 4, PerTensor)
	for i, v := range w.Data() {
		if v == 0 && q.Codes[i] != 0 {
			t.Fatalf("zero weight %d quantized to nonzero code %d", i, q.Codes[i])
		}
	}
}

func TestQuantizeAllZerosSafe(t *testing.T) {
	w := tensor.New(8)
	q := Quantize(w, 8, PerTensor)
	for _, c := range q.Codes {
		if c != 0 {
			t.Fatal("all-zero tensor must quantize to all-zero codes")
		}
	}
	deq := q.Dequantize()
	for _, v := range deq.Data() {
		if v != 0 {
			t.Fatal("all-zero tensor must dequantize to zeros")
		}
	}
}

func TestPerChannelBeatsPerTensorOnScaledChannels(t *testing.T) {
	// Channel 0 is tiny, channel 1 is huge: per-channel scales adapt.
	w := tensor.New(2, 100)
	r := tensor.NewRNG(4)
	d := w.Data()
	for i := 0; i < 100; i++ {
		d[i] = float32(r.NormFloat64() * 0.01)
		d[100+i] = float32(r.NormFloat64() * 10)
	}
	// Compare the error on the *small* channel only: the large channel has
	// the same scale under both schemes, so the max-abs error ties there.
	sliceErr := func(q *Quantized) float64 {
		deq := q.Dequantize()
		var m float64
		for i := 0; i < 100; i++ {
			if e := math.Abs(float64(deq.Data()[i] - w.Data()[i])); e > m {
				m = e
			}
		}
		return m
	}
	pt := sliceErr(Quantize(w, 4, PerTensor))
	pc := sliceErr(Quantize(w, 4, PerChannel))
	if pc >= pt {
		t.Fatalf("per-channel error %v should beat per-tensor %v on the small channel", pc, pt)
	}
}

func TestChannelParamsSelection(t *testing.T) {
	w := tensor.New(2, 4)
	w.Set(1, 0, 0)
	w.Set(100, 1, 0)
	q := Quantize(w, 8, PerChannel)
	if len(q.Params) != 2 {
		t.Fatalf("expected 2 param sets, got %d", len(q.Params))
	}
	if q.ChannelParams(0) != q.Params[0] || q.ChannelParams(7) != q.Params[1] {
		t.Fatal("ChannelParams maps indices to the wrong channel")
	}
}

func TestQuantizeRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		rows, cols := 1+r.Intn(8), 1+r.Intn(32)
		w := tensor.New(rows, cols)
		tensor.FillGaussian(w, r, 1)
		bits := 2 + r.Intn(7)
		scheme := PerTensor
		if r.Intn(2) == 1 {
			scheme = PerChannel
		}
		q := Quantize(w, bits, scheme)
		// Error bounded by the largest per-channel scale/2.
		var maxScale float32
		for _, p := range q.Params {
			if p.Scale > maxScale {
				maxScale = p.Scale
			}
		}
		return tensor.MaxAbsDiff(q.Dequantize(), w) <= float64(maxScale)/2*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeBitsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bits=0")
		}
	}()
	Quantize(tensor.New(2), 0, PerTensor)
}

func TestPruneMagnitude(t *testing.T) {
	w := tensor.From([]float32{5, -0.1, 3, 0.2, -4, 0.05}, 6)
	n := PruneMagnitude(w, 0.5)
	if n != 3 {
		t.Fatalf("pruned %d, want 3", n)
	}
	want := []float32{5, 0, 3, 0, -4, 0}
	for i, v := range w.Data() {
		if v != want[i] {
			t.Fatalf("PruneMagnitude = %v, want %v", w.Data(), want)
		}
	}
}

func TestPruneMagnitudeSparsityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 10 + r.Intn(200)
		w := tensor.New(n)
		tensor.FillGaussian(w, r, 1)
		p := r.Float64()
		PruneMagnitude(w, p)
		got := w.Sparsity()
		want := math.Round(p*float64(n)) / float64(n)
		return got >= want-1e-9 // pruning may overlap pre-existing zeros
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPruneMagnitudeBoundaries(t *testing.T) {
	w := tensor.New(4).Fill(1)
	if PruneMagnitude(w, 0) != 0 {
		t.Fatal("p=0 must prune nothing")
	}
	if PruneMagnitude(w, 2) != 4 {
		t.Fatal("p>1 must clamp to pruning everything")
	}
}

func TestQuantizedSparsityTracksPruning(t *testing.T) {
	r := tensor.NewRNG(8)
	w := tensor.New(32, 32)
	tensor.FillGaussian(w, r, 1)
	pruned := PruneMagnitude(w, 0.8)
	q := Quantize(w, 4, PerTensor)
	want := float64(pruned) / float64(w.NumElements())
	if s := q.Sparsity(); s < want {
		t.Fatalf("quantized sparsity %v should be at least the pruned fraction %v", s, want)
	}
}

func TestCalibrate(t *testing.T) {
	a := tensor.New(4).Fill(2)
	b := tensor.New(4).Fill(-8)
	p := Calibrate([]*tensor.Tensor{a, b}, 8)
	wantScale := float32(8) / 127
	if math.Abs(float64(p.Scale-wantScale)) > 1e-6 {
		t.Fatalf("Calibrate scale = %v, want %v", p.Scale, wantScale)
	}
}

func TestQuantizedClone(t *testing.T) {
	r := tensor.NewRNG(9)
	w := tensor.New(4, 4)
	tensor.FillGaussian(w, r, 1)
	q := Quantize(w, 4, PerTensor)
	c := q.Clone()
	c.Codes[0] = 99
	if q.Codes[0] == 99 {
		t.Fatal("Clone must deep-copy codes")
	}
}

func TestSchemeString(t *testing.T) {
	if PerTensor.String() != "per-tensor" || PerChannel.String() != "per-channel" {
		t.Fatal("scheme names wrong")
	}
}

func TestCalibrateAsymCoversRange(t *testing.T) {
	a := tensor.From([]float32{0, 1, 2, 6}, 4) // post-ReLU style
	p := CalibrateAsym([]*tensor.Tensor{a}, 8)
	if p.ZeroPoint != 0 {
		t.Fatalf("non-negative data should get zero point 0, got %d", p.ZeroPoint)
	}
	codes := QuantizeAsym(a.Data(), p, 8)
	for i, c := range codes {
		back := p.Scale * float32(c-p.ZeroPoint)
		if math.Abs(float64(back-a.Data()[i])) > float64(p.Scale)/2*1.01 {
			t.Fatalf("asym round trip error too big at %d: %v vs %v", i, back, a.Data()[i])
		}
	}
}

func TestCalibrateAsymMixedSign(t *testing.T) {
	a := tensor.From([]float32{-2, 0, 6}, 3)
	p := CalibrateAsym([]*tensor.Tensor{a}, 8)
	if p.ZeroPoint <= 0 {
		t.Fatalf("mixed-sign data needs positive zero point, got %d", p.ZeroPoint)
	}
	codes := QuantizeAsym([]float32{0}, p, 8)
	if codes[0] != p.ZeroPoint {
		t.Fatalf("real 0 must map to the zero point: %d vs %d", codes[0], p.ZeroPoint)
	}
}

func TestQuantizeAsymClamps(t *testing.T) {
	p := Params{Scale: 1, ZeroPoint: 10}
	codes := QuantizeAsym([]float32{-100, 300}, p, 8)
	if codes[0] != 0 || codes[1] != 255 {
		t.Fatalf("clamping wrong: %v", codes)
	}
}

func TestCalibrateAsymEmpty(t *testing.T) {
	p := CalibrateAsym(nil, 8)
	if p.Scale != 1 || p.ZeroPoint != 0 {
		t.Fatalf("empty calibration should be identity-ish: %+v", p)
	}
}
