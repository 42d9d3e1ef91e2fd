package ipe

import (
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func TestDenseCost(t *testing.T) {
	c := DenseCost(10, 100)
	if c.Muls != 1000 || c.Adds != 990 {
		t.Fatalf("DenseCost = %+v", c)
	}
	if c.Total() != 1990 {
		t.Fatalf("Total = %d", c.Total())
	}
}

func TestSparseCost(t *testing.T) {
	c := SparseCost(123)
	if c.Adds != 123 || c.Muls != 123 {
		t.Fatalf("SparseCost = %+v", c)
	}
}

func TestFactorizedCost(t *testing.T) {
	// Row 0: 10 nonzeros over 3 values → 10 adds, 3 muls; row 1 is all
	// zero and contributes nothing.
	q := &quant.Quantized{
		Codes:  []int32{1, 1, 2, 2, 2, 3, 3, 3, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		Shape:  tensor.Shape{2, 10},
		Bits:   4,
		Scheme: quant.PerTensor,
		Params: []quant.Params{{Scale: 1}},
	}
	c := Factorize(q).Cost()
	if c.Adds != 10 || c.Muls != 3 || c.StreamSymbols != 10 || c.DictEntries != 0 {
		t.Fatalf("Factorize cost = %+v", c)
	}
}

func TestProgramCostCountsExactly(t *testing.T) {
	// Program from TestEncodeMergesSharedPair: 1 pair, 2 rows each with a
	// single 1-symbol term.
	q := qm([]int32{
		1, 1, 0, 0,
		1, 1, 0, 0,
	}, 2, 4)
	prog, _, err := Encode(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := prog.Cost()
	// 1 add to build the pair, per row: 1 group add (n=1) + 1 mul.
	if c.Adds != 1+2 || c.Muls != 2 {
		t.Fatalf("Cost = %+v, want Adds=3 Muls=2", c)
	}
	if c.DictEntries != 1 || c.StreamSymbols != 2 {
		t.Fatalf("Cost = %+v", c)
	}
	if c.ScratchWords != int64(prog.K+1) {
		t.Fatalf("ScratchWords = %d", c.ScratchWords)
	}
}

func TestSpeedup(t *testing.T) {
	base := Cost{Adds: 50, Muls: 50}
	c := Cost{Adds: 20, Muls: 5}
	if got := c.Speedup(base); got != 4 {
		t.Fatalf("Speedup = %v, want 4", got)
	}
	if (Cost{}).Speedup(base) != 0 {
		t.Fatal("empty cost speedup should be 0")
	}
}

func TestIPECostBeatsDenseOnLowBit(t *testing.T) {
	// At 2-bit quantization a sizeable layer must need far fewer scalar
	// ops than dense — this is the paper's headline effect.
	r := tensor.NewRNG(30)
	q := randQuant(r, 64, 256, 2, 0)
	prog, _, err := Encode(q, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := q.Shape[0]
	k := q.NumElements() / m
	sp := prog.Cost().Speedup(DenseCost(m, k))
	if sp < 1.5 {
		t.Fatalf("2-bit IPE speedup over dense = %v, expected ≥ 1.5", sp)
	}
}

func TestIPEGainShrinksWithBits(t *testing.T) {
	// Value multiplicity drops as bit-width grows, so the advantage over
	// dense must be monotone non-increasing (within noise) from 2 to 8
	// bits on the same weights.
	r := tensor.NewRNG(31)
	w := tensor.New(48, 192)
	tensor.FillGaussian(w, r, 1)
	var prev float64 = 1e18
	for _, bits := range []int{2, 4, 8} {
		q := quant.Quantize(w, bits, quant.PerTensor)
		prog, _, err := Encode(q, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sp := prog.Cost().Speedup(DenseCost(48, 192))
		if sp > prev*1.05 { // small tolerance: dead pruning adds noise
			t.Fatalf("speedup increased with bits: %v then %v", prev, sp)
		}
		prev = sp
	}
}
