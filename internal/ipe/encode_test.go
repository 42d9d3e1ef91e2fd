package ipe

import (
	"testing"
	"testing/quick"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// qm builds a Quantized directly from explicit codes for precise test cases.
func qm(codes []int32, m, k int) *quant.Quantized {
	return &quant.Quantized{
		Codes:  codes,
		Shape:  tensor.Shape{m, k},
		Bits:   8,
		Scheme: quant.PerTensor,
		Params: []quant.Params{{Scale: 1}},
	}
}

// randQuant builds a random quantized matrix with controllable size range.
func randQuant(r *tensor.RNG, maxM, maxK int, bits int, sparsity float64) *quant.Quantized {
	m, k := 1+r.Intn(maxM), 2+r.Intn(maxK-1)
	w := tensor.New(m, k)
	tensor.FillGaussian(w, r, 1)
	if sparsity > 0 {
		quant.PruneMagnitude(w, sparsity)
	}
	return quant.Quantize(w, bits, quant.PerTensor)
}

func TestEncodeEmptyDictForNoRepeats(t *testing.T) {
	// Two rows with disjoint single values: no pair repeats, no merging.
	q := qm([]int32{
		1, 0, 0, 0,
		0, 0, 2, 0,
	}, 2, 4)
	prog, st, err := Encode(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.DictSize() != 0 {
		t.Fatalf("expected empty dictionary, got %d entries", prog.DictSize())
	}
	if st.Merges != 0 {
		t.Fatalf("expected 0 merges, got %d", st.Merges)
	}
}

func TestEncodeMergesSharedPair(t *testing.T) {
	// Rows 0 and 1 both contain value 1 at indices {0, 1}: the pair (0,1)
	// repeats and must be merged into one dictionary entry.
	q := qm([]int32{
		1, 1, 0, 0,
		1, 1, 0, 0,
		0, 0, 0, 0,
	}, 3, 4)
	prog, st, err := Encode(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.DictSize() != 1 {
		t.Fatalf("expected 1 dictionary entry, got %d", prog.DictSize())
	}
	if prog.Pairs[0].A != 0 || prog.Pairs[0].B != 1 {
		t.Fatalf("expected pair (0,1), got %+v", prog.Pairs[0])
	}
	// Both rows should now emit the single merged symbol.
	for r := 0; r < 2; r++ {
		if len(prog.Rows[r].Terms) != 1 || len(prog.Rows[r].Terms[0].Syms) != 1 {
			t.Fatalf("row %d should emit exactly one merged symbol: %+v", r, prog.Rows[r])
		}
		if prog.Rows[r].Terms[0].Syms[0] != int32(prog.K) {
			t.Fatalf("row %d should reference dict symbol %d", r, prog.K)
		}
	}
	if st.CompressionRatio() <= 1 {
		t.Fatalf("compression ratio %v should exceed 1", st.CompressionRatio())
	}
	if prog.Rows[2].Terms != nil {
		t.Fatal("all-zero row must have no terms")
	}
}

func TestEncodeCrossValueSharing(t *testing.T) {
	// The same index pair appearing under *different* values must still be
	// shared: value grouping separates coefficients, but the partial sum
	// x[2]+x[3] is value-agnostic.
	q := qm([]int32{
		0, 0, 3, 3,
		0, 0, 5, 5,
	}, 2, 4)
	prog, _, err := Encode(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.DictSize() != 1 {
		t.Fatalf("pair (2,3) shared across values should give 1 entry, got %d", prog.DictSize())
	}
}

func TestEncodeRespectsMaxDict(t *testing.T) {
	r := tensor.NewRNG(7)
	q := randQuant(r, 32, 64, 3, 0)
	for _, d := range []int{1, 2, 8, 64} {
		prog, _, err := Encode(q, Config{MaxDict: d})
		if err != nil {
			t.Fatal(err)
		}
		if prog.DictSize() > d {
			t.Fatalf("MaxDict=%d violated: dict has %d entries", d, prog.DictSize())
		}
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEncodeRespectsMaxDepth(t *testing.T) {
	r := tensor.NewRNG(8)
	q := randQuant(r, 32, 64, 2, 0)
	for _, l := range []int{1, 2, 4} {
		prog, _, err := Encode(q, Config{MaxDepth: l})
		if err != nil {
			t.Fatal(err)
		}
		if got := prog.MaxDepthUsed(); got > l {
			t.Fatalf("MaxDepth=%d violated: got depth %d", l, got)
		}
	}
}

func TestEncodeTileLocality(t *testing.T) {
	r := tensor.NewRNG(9)
	q := randQuant(r, 24, 96, 2, 0)
	const tile = 16
	prog, _, err := Encode(q, Config{TileSize: tile})
	if err != nil {
		t.Fatal(err)
	}
	// Every dictionary entry must expand to raw indices within one tile.
	for j := range prog.Pairs {
		raws := prog.ExpandSymbol(int32(prog.K + j))
		t0 := raws[0] / tile
		for _, ri := range raws {
			if ri/tile != t0 {
				t.Fatalf("dict entry %d spans tiles %d and %d", j, t0, ri/tile)
			}
		}
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		bits := 1 + r.Intn(5)
		sparsity := float64(r.Intn(3)) * 0.3
		q := randQuant(r, 16, 48, bits, sparsity)
		cfg := Config{
			MaxDict:  r.Intn(3) * 50,
			MaxDepth: r.Intn(3) * 4,
			TileSize: r.Intn(2) * 8,
		}
		if r.Intn(2) == 1 {
			cfg.Policy = PolicyGreedy
		}
		prog, _, err := Encode(q, cfg)
		if err != nil {
			return false
		}
		if err := prog.Validate(); err != nil {
			return false
		}
		return prog.VerifyAgainst(q) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeMonotoneCostProperty(t *testing.T) {
	// Encoding must never need more scalar ops than the factorized
	// (no-merging) form it starts from.
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		q := randQuant(r, 16, 48, 2+r.Intn(3), 0)
		prog, _, err := Encode(q, Config{})
		if err != nil {
			return false
		}
		return prog.Cost().Total() <= Factorize(q).Cost().Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyAndLayeredBothRoundTrip(t *testing.T) {
	r := tensor.NewRNG(10)
	q := randQuant(r, 12, 32, 2, 0)
	for _, pol := range []Policy{PolicyLayered, PolicyGreedy} {
		prog, _, err := Encode(q, Config{Policy: pol})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if err := prog.VerifyAgainst(q); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

func TestGreedyNotWorseThanLayeredOnSmallCase(t *testing.T) {
	// Exact greedy picks the globally most frequent pair each step; on a
	// crafted case it should compress at least as well as one layered
	// round would.
	q := qm([]int32{
		1, 1, 1, 1,
		1, 1, 1, 1,
		1, 1, 1, 1,
	}, 3, 4)
	pg, _, _ := Encode(q, Config{Policy: PolicyGreedy})
	pl, _, _ := Encode(q, Config{Policy: PolicyLayered})
	if pg.Cost().Total() > pl.Cost().Total()+1 {
		t.Fatalf("greedy cost %d much worse than layered %d", pg.Cost().Total(), pl.Cost().Total())
	}
}

func TestEncodeRejectsBadConfig(t *testing.T) {
	q := qm([]int32{1, 1}, 1, 2)
	if _, _, err := Encode(q, Config{MaxDict: -1}); err == nil {
		t.Fatal("negative MaxDict must be rejected")
	}
	if _, _, err := Encode(q, Config{Policy: Policy(9)}); err == nil {
		t.Fatal("unknown policy must be rejected")
	}
}

func TestEncodeRejectsScalarShape(t *testing.T) {
	q := &quant.Quantized{Codes: []int32{1}, Shape: tensor.Shape{1}, Bits: 8,
		Scheme: quant.PerTensor, Params: []quant.Params{{Scale: 1}}}
	if _, _, err := Encode(q, Config{}); err == nil {
		t.Fatal("rank-1 weight must be rejected")
	}
}

func TestStatsCompressionRatio(t *testing.T) {
	s := Stats{InputSymbols: 100, OutputSymbols: 25}
	if s.CompressionRatio() != 4 {
		t.Fatalf("ratio = %v, want 4", s.CompressionRatio())
	}
	if (Stats{}).CompressionRatio() != 1 {
		t.Fatal("empty stats ratio should be 1")
	}
}

func TestDeadEntryPruning(t *testing.T) {
	// With a layered pass, a pair counted twice can end up replaced once
	// or zero times because of overlap; any dictionary entry that ends up
	// unreferenced must be pruned. We check the global invariant: every
	// dictionary entry is referenced by some row or some later pair.
	r := tensor.NewRNG(11)
	for trial := 0; trial < 20; trial++ {
		q := randQuant(r, 16, 40, 2, 0)
		prog, _, err := Encode(q, Config{})
		if err != nil {
			t.Fatal(err)
		}
		refd := make([]bool, prog.DictSize())
		for _, row := range prog.Rows {
			for _, term := range row.Terms {
				for _, s := range term.Syms {
					if int(s) >= prog.K {
						refd[int(s)-prog.K] = true
					}
				}
			}
		}
		// Walk backward: an entry referenced by a live later entry is live.
		for j := prog.DictSize() - 1; j >= 0; j-- {
			if !refd[j] {
				continue
			}
			for _, op := range []int32{prog.Pairs[j].A, prog.Pairs[j].B} {
				if int(op) >= prog.K {
					refd[int(op)-prog.K] = true
				}
			}
		}
		for j, ok := range refd {
			if !ok {
				t.Fatalf("trial %d: dictionary entry %d is dead but survived pruning", trial, j)
			}
		}
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyLayered.String() != "layered" || PolicyGreedy.String() != "greedy" {
		t.Fatal("policy names wrong")
	}
}

// quantize4 quantizes a tensor at the main 4-bit operating point.
func quantize4(w *tensor.Tensor) *quant.Quantized {
	return quant.Quantize(w, 4, quant.PerTensor)
}
