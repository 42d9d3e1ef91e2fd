package baseline

import (
	"testing"
	"testing/quick"

	"repro/internal/ipe"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// The CSR baseline is an ipe.Sparse program: one single-symbol term per
// nonzero weight, run on the IPE executors.

// matVec runs p's compiled executor on the one input vector x (a [K, 1]
// column matrix).
func matVec(p *ipe.Program, x []float32) []float32 {
	y := make([]float32, p.M)
	p.Compiled().ExecuteMatrixIntoPar(y, x, 1, forcedPar(1))
	return y
}

func TestCSRKnownMatrix(t *testing.T) {
	q := &quant.Quantized{
		Codes:  []int32{1, 0, 2, 0, 0, 3},
		Shape:  tensor.Shape{2, 3},
		Bits:   4,
		Scheme: quant.PerTensor,
		Params: []quant.Params{{Scale: 1}},
	}
	p := ipe.Sparse(q)
	if n := ipe.CountCodes(q).CSR; n != 3 || p.Cost().Muls != 3 || p.DictSize() != 0 {
		t.Fatalf("CountCodes CSR = %d, terms %d, dictionary %d; want 3 terms, empty dictionary", n, p.Cost().Muls, p.DictSize())
	}
	y := matVec(p, []float32{1, 10, 100})
	if y[0] != 201 || y[1] != 300 {
		t.Fatalf("matVec = %v, want [201 300]", y)
	}
}

func TestCSRMatVecMatchesDenseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		m, k := 1+r.Intn(20), 1+r.Intn(40)
		w := tensor.New(m, k)
		tensor.FillGaussian(w, r, 1)
		quant.PruneMagnitude(w, 0.7)
		q := quant.Quantize(w, 1+r.Intn(8), quant.PerChannel)
		p := ipe.Sparse(q)
		x := make([]float32, k)
		for i := range x {
			x[i] = float32(r.NormFloat64())
		}
		got := matVec(p, x)
		want := make([]float32, m)
		tensor.MatVec(q.Dequantize().Data(), x, want, m, k)
		for i := range got {
			d := got[i] - want[i]
			if d > 1e-3 || d < -1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRMatMatMatchesMatVec(t *testing.T) {
	r := tensor.NewRNG(2)
	w := tensor.New(8, 16)
	tensor.FillGaussian(w, r, 1)
	quant.PruneMagnitude(w, 0.5)
	c := ipe.Sparse(quant.Quantize(w, 8, quant.PerChannel)).Compiled()
	b := tensor.New(16, 5)
	tensor.FillGaussian(b, r, 1)
	got := make([]float32, 8*5)
	c.ExecuteMatrixIntoPar(got, b.Data(), 5, forcedPar(1))
	x := make([]float32, 16)
	y := make([]float32, 8)
	for j := 0; j < 5; j++ {
		for i := 0; i < 16; i++ {
			x[i] = b.At(i, j)
		}
		c.ExecuteMatrixIntoPar(y, x, 1, forcedPar(1))
		for i := 0; i < 8; i++ {
			if got[i*5+j] != y[i] {
				t.Fatalf("matrix[%d,%d]=%v, vector=%v", i, j, got[i*5+j], y[i])
			}
		}
	}
}

func TestCSRFromQuantizedDropsZeroCodes(t *testing.T) {
	r := tensor.NewRNG(3)
	w := tensor.New(8, 32)
	tensor.FillGaussian(w, r, 1)
	quant.PruneMagnitude(w, 0.75)
	q := quant.Quantize(w, 4, quant.PerTensor)
	nonzero := 0
	for _, code := range q.Codes {
		if code != 0 {
			nonzero++
		}
	}
	if n := ipe.CountCodes(q).CSR; n != int64(nonzero) {
		t.Fatalf("CountCodes CSR %d != nonzero codes %d", n, nonzero)
	}
	if terms := ipe.Sparse(q).Cost().Muls; terms != int64(nonzero) {
		t.Fatalf("Sparse built %d terms, want one per nonzero code (%d)", terms, nonzero)
	}
}

func TestConvCSRMatchesReference(t *testing.T) {
	r := tensor.NewRNG(4)
	spec := tensor.ConvSpec{InC: 4, OutC: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.3)
	quant.PruneMagnitude(w, 0.6)
	bias := tensor.New(spec.OutC)
	tensor.FillGaussian(bias, r, 0.1)
	q := quant.Quantize(w, 8, quant.PerChannel)
	l, err := ipe.SparseConv(q, bias, spec)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 4, 8, 8)
	tensor.FillGaussian(in, r, 1)
	got := l.Forward(in)
	want := tensor.Conv2D(in, q.Dequantize(), bias, spec)
	if !tensor.AllClose(got, want, 1e-3, 1e-3) {
		t.Fatalf("CSR conv diverges: %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestFactorizedMatchesDenseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		m, k := 1+r.Intn(16), 1+r.Intn(32)
		w := tensor.New(m, k)
		tensor.FillGaussian(w, r, 1)
		q := quant.Quantize(w, 1+r.Intn(6), quant.PerTensor)
		fa := ipe.Factorize(q)
		deq := q.Dequantize()
		x := make([]float32, k)
		for i := range x {
			x[i] = float32(r.NormFloat64())
		}
		got := matVec(fa, x)
		want := make([]float32, m)
		tensor.MatVec(deq.Data(), x, want, m, k)
		for i := range got {
			d := float64(got[i] - want[i])
			if d > 1e-3 || d < -1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFactorizedCostMatchesStructure(t *testing.T) {
	q := &quant.Quantized{
		Codes:  []int32{1, 1, 2, 0, 3, 3, 3, 0},
		Shape:  tensor.Shape{2, 4},
		Bits:   4,
		Scheme: quant.PerTensor,
		Params: []quant.Params{{Scale: 1}},
	}
	c := ipe.Factorize(q).Cost()
	// Row 0: values {1:[0,1], 2:[2]} → nnz 3, terms 2.
	// Row 1: values {3:[0,1,2]} → nnz 3, terms 1.
	// Adds = nnz total = 6, Muls = 3 terms.
	if c.Adds != 6 || c.Muls != 3 {
		t.Fatalf("Cost = %+v, want Adds=6 Muls=3", c)
	}
	if c.StreamSymbols != 6 {
		t.Fatalf("StreamSymbols = %d, want 6", c.StreamSymbols)
	}
}

func TestConvFactorizedMatchesReference(t *testing.T) {
	r := tensor.NewRNG(5)
	spec := tensor.ConvSpec{InC: 4, OutC: 6, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.3)
	q := quant.Quantize(w, 4, quant.PerTensor)
	l, err := ipe.FactorizeConv(q, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(2, 4, 9, 9)
	tensor.FillGaussian(in, r, 1)
	got := l.Forward(in)
	want := tensor.Conv2D(in, q.Dequantize(), nil, spec)
	if !tensor.AllClose(got, want, 1e-3, 1e-3) {
		t.Fatalf("factorized conv diverges: %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestConvFactorizedGrouped(t *testing.T) {
	r := tensor.NewRNG(6)
	spec := tensor.ConvSpec{InC: 8, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 8}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.3)
	q := quant.Quantize(w, 4, quant.PerChannel)
	l, err := ipe.FactorizeConv(q, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 8, 6, 6)
	tensor.FillGaussian(in, r, 1)
	got := l.Forward(in)
	want := tensor.Conv2D(in, q.Dequantize(), nil, spec)
	if !tensor.AllClose(got, want, 1e-3, 1e-3) {
		t.Fatalf("grouped factorized conv diverges: %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestIPEBeatsFactorizedWhichBeatsDense(t *testing.T) {
	// The op-count ordering that defines the evaluation narrative:
	// dense ≥ factorized ≥ IPE at low bit-width.
	r := tensor.NewRNG(7)
	w := tensor.New(32, 128)
	tensor.FillGaussian(w, r, 1)
	q := quant.Quantize(w, 4, quant.PerTensor)
	fact := ipe.Factorize(q).Cost()
	prog, _, err := ipe.Encode(q, ipe.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ipeCost := prog.Cost()
	dense := ipe.DenseCost(32, 128)
	if fact.Total() >= dense.Total() {
		t.Fatalf("factorized (%d) should beat dense (%d) at 4 bits", fact.Total(), dense.Total())
	}
	if ipeCost.Total() >= fact.Total() {
		t.Fatalf("IPE (%d) should beat factorized (%d) at 4 bits", ipeCost.Total(), fact.Total())
	}
}
