package ipe

import (
	"fmt"

	"repro/internal/quant"
)

// EncodeShared jointly encodes several quantized weight matrices with the
// same reduction length K into programs that share one pair dictionary.
// CNNs repeat layer shapes heavily (ResNet-18's 512×512×3×3 appears three
// times), and a shared dictionary means one scratchpad image and one
// decode-table load serves all of them — the cross-layer extension the
// encoder's formulation gets for free, since pair counting simply runs
// over the union of all (row, value) index sets.
//
// The returned programs alias one Pairs/Depth table; program i's Rows are
// exactly matrix i's rows. Every program independently satisfies
// Validate and VerifyAgainst its own input.
func EncodeShared(qs []*quant.Quantized, cfg Config) ([]*Program, Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if len(qs) == 0 {
		return nil, Stats{}, fmt.Errorf("ipe: EncodeShared needs at least one matrix")
	}
	k := -1
	bits := qs[0].Bits
	for i, q := range qs {
		if q.Shape.Rank() < 2 || q.Shape[0] == 0 || q.NumElements() == 0 {
			return nil, Stats{}, fmt.Errorf("ipe: matrix %d has unusable shape %v", i, q.Shape)
		}
		ki := q.NumElements() / q.Shape[0]
		if k == -1 {
			k = ki
		} else if ki != k {
			return nil, Stats{}, fmt.Errorf("ipe: matrix %d has K=%d, want %d (shared encoding needs equal reduction lengths)", i, ki, k)
		}
		if q.Bits != bits {
			return nil, Stats{}, fmt.Errorf("ipe: matrix %d has %d bits, want %d", i, q.Bits, bits)
		}
	}

	enc := newEncoder(cfg, k)
	defer enc.release()
	stats := Stats{}
	// Row offsets map each matrix's rows into one global row space.
	offsets := make([]int, len(qs)+1)
	for i, q := range qs {
		offsets[i+1] = offsets[i] + q.Shape[0]
		enc.appendSequences(q, offsets[i], &stats)
	}
	enc.run(&stats)

	combined := enc.buildProgramScaled(offsets[len(qs)], bits, func(row int) float32 {
		for i := len(qs) - 1; i >= 0; i-- {
			if row >= offsets[i] {
				return qs[i].RowScale(row - offsets[i])
			}
		}
		return 1
	}, &stats)

	progs := make([]*Program, len(qs))
	for i := range qs {
		progs[i] = &Program{
			K:      k,
			M:      qs[i].Shape[0],
			Pairs:  combined.Pairs,
			Depth:  combined.Depth,
			Rows:   combined.Rows[offsets[i]:offsets[i+1]],
			Bits:   bits,
			Config: cfg,
		}
	}
	return progs, stats, nil
}
