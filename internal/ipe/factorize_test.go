package ipe

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// factorizedMatMat is the loop of the scalar value-factorized executor
// that empty-dictionary programs replaced: per output an accumulator from
// +0, per term a group sum from +0 over the term's indices in order, then
// accumulator += Value·group. It is the oracle Factorize programs must
// reproduce on the IPE executor.
func factorizedMatMat(p *Program, dst, b []float32, cols int) {
	group := make([]float32, cols)
	for r := range p.Rows {
		out := dst[r*cols : (r+1)*cols]
		clear(out)
		for _, t := range p.Rows[r].Terms {
			clear(group)
			for _, i := range t.Syms {
				src := b[int(i)*cols : int(i)*cols+cols]
				for j := range src {
					group[j] += src[j]
				}
			}
			for j := range out {
				out[j] += t.Value * group[j]
			}
		}
	}
}

// TestFactorizeMatchesFactorizedLoops checks Factorize programs against the
// scalar factorized loop bit for bit, on inputs laced with special values:
// the compiled matrix executor at every column count 1..130 (one column is
// the single item a dense layer serves) on one to three shards, NaN
// payloads included where its kernels pin them.
func TestFactorizeMatchesFactorizedLoops(t *testing.T) {
	for pTotal := 1; pTotal <= 130; pTotal++ {
		r := tensor.NewRNG(uint64(7000 + pTotal))
		prog := Factorize(matrixQuant(r))
		cols := lacedInputs(r, prog.K*pTotal)
		if err := prog.Validate(); err != nil || prog.DictSize() != 0 {
			t.Fatalf("Factorize: dictionary %d, Validate %v", prog.DictSize(), err)
		}
		c := prog.Compiled()

		want := make([]float32, prog.M*pTotal)
		factorizedMatMat(prog, want, cols, pTotal)
		got := make([]float32, prog.M*pTotal)
		shards := 1 + pTotal%3
		c.ExecuteMatrixIntoPar(got, cols, pTotal, forcedPar(shards))
		checkBits(t, fmt.Sprintf("M=%d K=%d pTotal=%d shards=%d: ExecuteMatrixIntoPar", prog.M, prog.K, pTotal, shards),
			got, want, "factorized loop", pinsNaNPayloads)

	}
}
