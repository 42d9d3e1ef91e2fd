package ipe

import (
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Adversarial weight patterns: structures chosen to stress the encoder's
// corner cases rather than look like trained weights.

func codesMatrix(m, k int, fill func(r, c int) int32) *quant.Quantized {
	codes := make([]int32, m*k)
	for r := 0; r < m; r++ {
		for c := 0; c < k; c++ {
			codes[r*k+c] = fill(r, c)
		}
	}
	return &quant.Quantized{
		Codes: codes, Shape: tensor.Shape{m, k}, Bits: 8,
		Scheme: quant.PerTensor, Params: []quant.Params{{Scale: 1}},
	}
}

func TestEncodeAllSameValueMatrix(t *testing.T) {
	// Every weight identical: each row is one giant index set, maximal
	// merging pressure. The result must collapse toward a single
	// log-depth tree shared by all rows.
	q := codesMatrix(16, 64, func(r, c int) int32 { return 3 })
	prog, stats, err := Encode(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.VerifyAgainst(q); err != nil {
		t.Fatal(err)
	}
	// All rows identical → after full merging each row should emit very
	// few symbols, and the dictionary is shared: ~K-1 entries build the
	// full-row sum tree.
	if prog.DictSize() >= 16*64/2 {
		t.Fatalf("sharing failed: %d dictionary entries", prog.DictSize())
	}
	cost := prog.Cost()
	dense := DenseCost(16, 64)
	if cost.Total() >= dense.Total()/4 {
		t.Fatalf("all-same matrix should compress massively: %d vs dense %d",
			cost.Total(), dense.Total())
	}
	if stats.CompressionRatio() < 2 {
		t.Fatalf("compression ratio %v too low for all-same matrix", stats.CompressionRatio())
	}
}

func TestEncodeCheckerboard(t *testing.T) {
	// Alternating ±1: two interleaved index sets per row, identical across
	// rows — classic weight-repetition case.
	q := codesMatrix(8, 32, func(r, c int) int32 {
		if c%2 == 0 {
			return 1
		}
		return -1
	})
	prog, _, err := Encode(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.VerifyAgainst(q); err != nil {
		t.Fatal(err)
	}
	// Rows are identical: rows 1..7 must reuse row 0's merged symbols, so
	// the per-row emit stream should be tiny.
	for r, row := range prog.Rows {
		var syms int
		for _, term := range row.Terms {
			syms += len(term.Syms)
		}
		if syms > 8 {
			t.Fatalf("row %d still emits %d symbols; expected deep sharing", r, syms)
		}
	}
}

func TestEncodeDiagonalMatrix(t *testing.T) {
	// Identity-like: one nonzero per row, nothing to merge, and the
	// encoder must not invent work.
	q := codesMatrix(32, 32, func(r, c int) int32 {
		if r == c {
			return 5
		}
		return 0
	})
	prog, stats, err := Encode(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.DictSize() != 0 || stats.Merges != 0 {
		t.Fatalf("diagonal matrix must not merge: dict=%d", prog.DictSize())
	}
	c := prog.Cost()
	// Per row: 1 group add + 1 mul.
	if c.Muls != 32 || c.Adds != 32 {
		t.Fatalf("diagonal cost = %+v", c)
	}
}

func TestEncodeSingleColumnRepeated(t *testing.T) {
	// Every row uses only input 0: sets of size 1 everywhere; no pairs
	// exist at all.
	q := codesMatrix(16, 8, func(r, c int) int32 {
		if c == 0 {
			return int32(r%5) + 1
		}
		return 0
	})
	prog, _, err := Encode(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.DictSize() != 0 {
		t.Fatal("size-1 sets cannot merge")
	}
	if err := prog.VerifyAgainst(q); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeMaxNegativeCodes(t *testing.T) {
	// Codes at the signed boundary the wire format must carry (int16).
	q := codesMatrix(4, 8, func(r, c int) int32 {
		if c%2 == 0 {
			return -127
		}
		return 127
	})
	prog, _, err := Encode(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Program
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if err := back.VerifyAgainst(q); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeTileBoundaryPairs(t *testing.T) {
	// All repetition spans a tile boundary: tile-local encoding must
	// refuse every merge, global encoding must take them.
	const tile = 4
	q := codesMatrix(8, 8, func(r, c int) int32 {
		if c == 3 || c == 4 { // straddles the 4-wide tile boundary
			return 2
		}
		return 0
	})
	local, _, err := Encode(q, Config{TileSize: tile})
	if err != nil {
		t.Fatal(err)
	}
	if local.DictSize() != 0 {
		t.Fatalf("tile-local encoding merged across the boundary: %d entries", local.DictSize())
	}
	global, _, err := Encode(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if global.DictSize() == 0 {
		t.Fatal("global encoding should merge the repeated straddling pair")
	}
	for _, p := range []*Program{local, global} {
		if err := p.VerifyAgainst(q); err != nil {
			t.Fatal(err)
		}
	}
}
