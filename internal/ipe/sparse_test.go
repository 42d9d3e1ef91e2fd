package ipe

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// csrOracle is the compressed-sparse-row matrix the CSR baseline kept
// before it became a Sparse program: the nonzeros of q's dequantized
// weights, row by row in column order.
type csrOracle struct {
	m, k   int
	rowPtr []int32
	col    []int32
	val    []float32
}

func newCSROracle(q *quant.Quantized) *csrOracle {
	m := q.Shape[0]
	k := q.NumElements() / m
	c := &csrOracle{m: m, k: k, rowPtr: make([]int32, m+1)}
	d := q.Dequantize().Data()
	for r := 0; r < m; r++ {
		for i := 0; i < k; i++ {
			if v := d[r*k+i]; v != 0 {
				c.col = append(c.col, int32(i))
				c.val = append(c.val, v)
			}
		}
		c.rowPtr[r+1] = int32(len(c.col))
	}
	return c
}

// matMat is the loop of the scalar CSR executor that Sparse programs
// replaced: per output an accumulator from +0, then accumulator +=
// value·b[col] per nonzero in order. It is the oracle Sparse programs must
// reproduce on the IPE executor.
func (c *csrOracle) matMat(dst, b []float32, p int) {
	for r := 0; r < c.m; r++ {
		out := dst[r*p : (r+1)*p]
		clear(out)
		for i := c.rowPtr[r]; i < c.rowPtr[r+1]; i++ {
			v := c.val[i]
			src := b[int(c.col[i])*p : int(c.col[i])*p+p]
			for j := range src {
				out[j] += v * src[j]
			}
		}
	}
}

// TestSparseMatchesCSRLoops checks Sparse programs against the scalar CSR
// loop bit for bit, on inputs laced with special values: one term per
// nonzero in the CSR's order, and the compiled matrix executor at every
// column count 1..130 (one column is the single item a dense layer serves)
// on one to three shards. NaN payloads are compared where its kernels pin
// them, except under the race detector, which moves the oracle's own
// choice of NaN operand.
func TestSparseMatchesCSRLoops(t *testing.T) {
	for pTotal := 1; pTotal <= 130; pTotal++ {
		r := tensor.NewRNG(uint64(9000 + pTotal))
		q := matrixQuant(r)
		prog, csr := Sparse(q), newCSROracle(q)
		cols := lacedInputs(r, prog.K*pTotal)
		if err := prog.Validate(); err != nil || prog.DictSize() != 0 {
			t.Fatalf("Sparse: dictionary %d, Validate %v", prog.DictSize(), err)
		}
		if int(CountCodes(q).CSR) != len(csr.val) {
			t.Fatalf("CountCodes CSR %d, CSR keeps %d", CountCodes(q).CSR, len(csr.val))
		}
		n := 0
		for row, terms := range prog.Rows {
			if len(terms.Terms) != int(csr.rowPtr[row+1]-csr.rowPtr[row]) {
				t.Fatalf("row %d: %d terms, CSR row holds %d", row, len(terms.Terms), csr.rowPtr[row+1]-csr.rowPtr[row])
			}
			for _, term := range terms.Terms {
				if len(term.Syms) != 1 || term.Syms[0] != csr.col[n] || term.Value != csr.val[n] {
					t.Fatalf("row %d term %d: %+v, CSR entry (%d, %v)", row, n, term, csr.col[n], csr.val[n])
				}
				n++
			}
		}
		c := prog.Compiled()

		want := make([]float32, prog.M*pTotal)
		csr.matMat(want, cols, pTotal)
		got := make([]float32, prog.M*pTotal)
		shards := 1 + pTotal%3
		c.ExecuteMatrixIntoPar(got, cols, pTotal, forcedPar(shards))
		checkBits(t, fmt.Sprintf("M=%d K=%d pTotal=%d shards=%d: ExecuteMatrixIntoPar", prog.M, prog.K, pTotal, shards),
			got, want, "CSR loop", pinsNaNPayloads && !raceEnabled)

	}
}

// TestCountCodesFollowsBothRules checks CountCodes on hand-built codes the
// symmetric quantizer never makes: non-zero zero points, and scales that
// are zero, subnormal, infinite or NaN, per row and per tensor. CSR must
// count what Sparse keeps (a non-zero dequantized value), and Nonzeros and
// Groups what Factorize builds (a non-zero code), whatever the parameters.
func TestCountCodesFollowsBothRules(t *testing.T) {
	scales := []float32{1, -0.5, 0x1p-149, 0x1p-127, 0, float32(math.Inf(1)), float32(math.NaN()), 3e38}
	for seed := uint64(1); seed <= 40; seed++ {
		r := tensor.NewRNG(seed)
		m, k := 1+r.Intn(12), 1+r.Intn(40)
		q := &quant.Quantized{Codes: make([]int32, m*k), Shape: tensor.Shape{m, k}, Bits: 8, Scheme: quant.PerChannel}
		for i := range q.Codes {
			if r.Intn(3) > 0 {
				q.Codes[i] = int32(r.Intn(200)) - 100
			}
		}
		nparams := m
		if seed%4 == 0 {
			q.Scheme, nparams = quant.PerTensor, 1
		}
		for i := 0; i < nparams; i++ {
			q.Params = append(q.Params, quant.Params{Scale: scales[r.Intn(len(scales))], ZeroPoint: int32(r.Intn(7)) - 3})
		}
		c := CountCodes(q)
		if got := Sparse(q).Cost().Muls; c.CSR != got {
			t.Fatalf("seed %d: CSR count %d, Sparse keeps %d (params %v)", seed, c.CSR, got, q.Params)
		}
		if got, want := c.Factorized(), Factorize(q).Cost(); got != want {
			t.Fatalf("seed %d: factorized cost from counts %+v, built %+v", seed, got, want)
		}
	}
}
