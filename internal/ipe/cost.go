package ipe

// Cost is the arithmetic and storage footprint of evaluating an encoded
// layer on ONE input vector. The simulated accelerator (internal/accel)
// converts these counts into cycles and energy; Table 2 reports them
// directly.
type Cost struct {
	// Adds is the number of scalar additions: one per dictionary entry
	// (building the partial sums), len(Syms)-1 per term group (plus one to
	// accumulate the term into the row), counted exactly.
	Adds int64
	// Muls is the number of scalar multiplications: one per term.
	Muls int64
	// DictEntries is the number of live pair entries (scratchpad words).
	DictEntries int64
	// StreamSymbols is the total emit-stream length (Σ len(Syms)).
	StreamSymbols int64
	// ScratchWords is the peak scratch requirement in words:
	// K inputs + dictionary entries.
	ScratchWords int64
}

// Total returns Adds+Muls, the scalar op count the evaluation figures use.
func (c Cost) Total() int64 { return c.Adds + c.Muls }

// Cost computes the exact per-input-vector cost of the program.
func (p *Program) Cost() Cost {
	c := Cost{
		DictEntries:  int64(len(p.Pairs)),
		ScratchWords: int64(p.K + len(p.Pairs)),
	}
	c.Adds += int64(len(p.Pairs)) // one add per partial-sum entry
	for _, row := range p.Rows {
		for _, t := range row.Terms {
			n := int64(len(t.Syms))
			c.StreamSymbols += n
			// n-1 adds to sum the group, 1 mul to scale it, 1 add to
			// accumulate it into the row (the first term's accumulate is
			// free, but we count it to keep the model simple and
			// conservative against IPE).
			c.Adds += n // (n-1) group adds + 1 accumulate
			c.Muls++
		}
	}
	return c
}

// DenseCost returns the cost of a dense float GEMV of the same shape:
// M·K multiplies and M·(K-1) adds, with no scratch beyond the input.
func DenseCost(m, k int) Cost {
	return Cost{
		Adds:          int64(m) * int64(k-1),
		Muls:          int64(m) * int64(k),
		StreamSymbols: int64(m) * int64(k),
		ScratchWords:  int64(k),
	}
}

// SparseCost returns the cost of CSR sparse execution: one multiply and one
// add per stored nonzero.
func SparseCost(nnz int64) Cost {
	return Cost{Adds: nnz, Muls: nnz, StreamSymbols: nnz}
}

// Speedup returns baseline.Total()/c.Total(), i.e. how many times fewer
// scalar ops c needs than baseline. Returns +Inf-free 0 when c is empty.
func (c Cost) Speedup(baseline Cost) float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(baseline.Total()) / float64(c.Total())
}
