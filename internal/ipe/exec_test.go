package ipe

import (
	"testing"
	"testing/quick"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// denseRef computes y = W_deq · x with float64 accumulation as the oracle.
func denseRef(q *quant.Quantized, x []float32) []float32 {
	deq := q.Dequantize()
	m := q.Shape[0]
	k := q.NumElements() / m
	y := make([]float32, m)
	for r := 0; r < m; r++ {
		var acc float64
		for i := 0; i < k; i++ {
			acc += float64(deq.Data()[r*k+i]) * float64(x[i])
		}
		y[r] = float32(acc)
	}
	return y
}

// execVector evaluates prog on the one input vector x, as the [K, 1]
// column matrix through the interpreter.
func execVector(prog *Program, x []float32) []float32 {
	y := make([]float32, prog.M)
	var s tensor.Scratch
	prog.ExecuteMatrixInto(y, x, 1, &s)
	return y
}

func TestExecuteMatchesDenseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		q := randQuant(r, 16, 48, 1+r.Intn(6), float64(r.Intn(2))*0.5)
		prog, _, err := Encode(q, Config{MaxDict: 256, MaxDepth: 8, TileSize: 16})
		if err != nil {
			return false
		}
		k := q.NumElements() / q.Shape[0]
		x := make([]float32, k)
		for i := range x {
			x[i] = float32(r.NormFloat64())
		}
		y := execVector(prog, x)
		want := denseRef(q, x)
		for i := range y {
			d := float64(y[i] - want[i])
			if d < 0 {
				d = -d
			}
			if d > 1e-3+1e-3*abs64(float64(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestExecuteIntBitExactProperty(t *testing.T) {
	// The integer path must agree exactly with a direct integer dot
	// product of the quantized codes.
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		q := randQuant(r, 16, 48, 1+r.Intn(6), 0)
		cfg := Config{MaxDict: r.Intn(2) * 128, MaxDepth: r.Intn(3) * 4}
		prog, _, err := Encode(q, cfg)
		if err != nil {
			return false
		}
		m := q.Shape[0]
		k := q.NumElements() / m
		x := make([]int32, k)
		for i := range x {
			x[i] = int32(r.Intn(255)) - 127
		}
		y := make([]int64, m)
		prog.ExecuteInt(x, y)
		for row := 0; row < m; row++ {
			var want int64
			for i := 0; i < k; i++ {
				want += int64(q.Codes[row*k+i]) * int64(x[i])
			}
			if y[row] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteMatrixMatchesVectorProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		q := randQuant(r, 12, 32, 3, 0)
		prog, _, err := Encode(q, Config{})
		if err != nil {
			return false
		}
		k := q.NumElements() / q.Shape[0]
		p := 1 + r.Intn(200) // cross the colBlock boundary sometimes
		cols := tensor.New(k, p)
		tensor.FillGaussian(cols, r, 1)
		got := prog.ExecuteMatrix(cols)
		x := make([]float32, k)
		for c := 0; c < p; c++ {
			for i := 0; i < k; i++ {
				x[i] = cols.At(i, c)
			}
			y := execVector(prog, x)
			for row := range y {
				d := float64(got.At(row, c) - y[row])
				if d < 0 {
					d = -d
				}
				if d > 1e-4+1e-4*abs64(float64(y[row])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestExecutePanicsOnShortBuffers(t *testing.T) {
	q := qm([]int32{1, 1}, 1, 2)
	prog, _, _ := Encode(q, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short input")
		}
	}()
	var s tensor.Scratch
	prog.ExecuteMatrixInto([]float32{0}, []float32{1}, 1, &s)
}

func TestExecuteKnownValues(t *testing.T) {
	// W = [[2, 2, 0], [0, 2, 2]] (codes, scale 1), x = [1, 10, 100].
	q := qm([]int32{2, 2, 0, 0, 2, 2}, 2, 3)
	prog, _, err := Encode(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	y := execVector(prog, []float32{1, 10, 100})
	if y[0] != 22 || y[1] != 220 {
		t.Fatalf("ExecuteMatrixInto = %v, want [22 220]", y)
	}
}

func TestConvLayerMatchesReferenceConv(t *testing.T) {
	r := tensor.NewRNG(20)
	spec := tensor.ConvSpec{InC: 4, OutC: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.2)
	bias := tensor.New(spec.OutC)
	tensor.FillGaussian(bias, r, 0.1)
	layer, st, err := EncodeConv(w, bias, spec, 4, quant.PerChannel, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.InputSymbols == 0 {
		t.Fatal("encoder saw no symbols")
	}
	in := tensor.New(2, spec.InC, 8, 8)
	tensor.FillGaussian(in, r, 1)
	got := layer.Forward(in)
	want := tensor.Conv2D(in, quant.Quantize(w, 4, quant.PerChannel).Dequantize(), bias, spec)
	if !tensor.AllClose(got, want, 1e-3, 1e-3) {
		t.Fatalf("encoded conv diverges from reference: max diff %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestConvLayerGroupedMatchesReference(t *testing.T) {
	r := tensor.NewRNG(21)
	spec := tensor.ConvSpec{InC: 6, OutC: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 3}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.3)
	layer, _, err := EncodeConv(w, nil, spec, 4, quant.PerTensor, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, spec.InC, 6, 6)
	tensor.FillGaussian(in, r, 1)
	got := layer.Forward(in)
	want := tensor.Conv2D(in, quant.Quantize(w, 4, quant.PerTensor).Dequantize(), nil, spec)
	if !tensor.AllClose(got, want, 1e-3, 1e-3) {
		t.Fatalf("grouped encoded conv diverges: max diff %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestConvLayerCostScalesWithPixels(t *testing.T) {
	r := tensor.NewRNG(22)
	spec := tensor.ConvSpec{InC: 3, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.2)
	layer, _, err := EncodeConv(w, nil, spec, 4, quant.PerTensor, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c8 := layer.Cost(1, 8, 8)
	c16 := layer.Cost(1, 16, 16)
	if c16.Total() != 4*c8.Total() {
		t.Fatalf("cost should scale with output pixels: %d vs 4×%d", c16.Total(), c8.Total())
	}
}

func TestDenseLayerMatchesReference(t *testing.T) {
	r := tensor.NewRNG(23)
	w := tensor.New(10, 32)
	tensor.FillGaussian(w, r, 0.2)
	bias := tensor.New(10)
	tensor.FillGaussian(bias, r, 0.1)
	layer, _, err := EncodeDense(w, bias, 4, quant.PerChannel, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(3, 32)
	tensor.FillGaussian(in, r, 1)
	got := layer.Forward(in)
	want := tensor.Dense(in, quant.Quantize(w, 4, quant.PerChannel).Dequantize(), bias)
	if !tensor.AllClose(got, want, 1e-3, 1e-3) {
		t.Fatalf("encoded dense diverges: max diff %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestEncodeConvRejectsWrongWeightShape(t *testing.T) {
	spec := tensor.ConvSpec{InC: 3, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	w := tensor.New(4, 3, 2, 2) // wrong kernel dims
	if _, _, err := EncodeConv(w, nil, spec, 4, quant.PerTensor, Config{}); err == nil {
		t.Fatal("wrong weight shape must be rejected")
	}
}

// TestDenseForwardBatchRemainders drives DenseLayer.ForwardIntoPar across
// batch sizes 1..9, checking every row equals that item run alone, as one
// column through the interpreter.
func TestDenseForwardBatchRemainders(t *testing.T) {
	const m, k = 16, 150
	w := tensor.New(m, k)
	tensor.FillGaussian(w, tensor.NewRNG(3), 1)
	layer, _, err := EncodeDense(w, nil, 4, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	par := tensor.NewPar(nil, 1)
	for n := 1; n <= 9; n++ {
		in := tensor.New(n, k)
		tensor.FillGaussian(in, tensor.NewRNG(uint64(n)), 1)
		out := tensor.New(n, m)
		layer.ForwardIntoPar(out, in, false, par)
		for b := 0; b < n; b++ {
			want := execVector(layer.Program, in.Data()[b*k:(b+1)*k])
			for i := range want {
				if out.Data()[b*m+i] != want[i] {
					t.Fatalf("n=%d row %d out %d: %x want %x", n, b, i, out.Data()[b*m+i], want[i])
				}
			}
		}
	}
}
