package ipe

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// ExecuteInt evaluates the program exactly in integer arithmetic on one
// input vector: x holds quantized input codes and y receives the int64
// accumulators Σ code·Σ x[i]. This is the bit-exact path of the int8
// forward paths and of the equivalence property tests.
func (p *Program) ExecuteInt(x []int32, y []int64) {
	p.ExecuteIntScratch(x, y, make([]int64, p.NumSymbols()))
}

// ExecuteIntScratch is ExecuteInt with a caller-provided scratch buffer of
// at least NumSymbols() int64 accumulators, for allocation-free fixed-point
// inference. The scratch contents are fully overwritten.
func (p *Program) ExecuteIntScratch(x []int32, y, vals []int64) {
	if len(x) < p.K || len(y) < p.M {
		panic("ipe: ExecuteInt buffers too small")
	}
	if len(vals) < p.NumSymbols() {
		panic(fmt.Sprintf("ipe: int scratch %d < symbols %d", len(vals), p.NumSymbols()))
	}
	for i := 0; i < p.K; i++ {
		vals[i] = int64(x[i])
	}
	for j, pr := range p.Pairs {
		vals[p.K+j] = vals[pr.A] + vals[pr.B]
	}
	for r := range p.Rows {
		var acc int64
		for _, t := range p.Rows[r].Terms {
			var g int64
			for _, s := range t.Syms {
				g += vals[s]
			}
			acc += int64(t.Code) * g
		}
		y[r] = acc
	}
}

// colBlock is the number of input columns processed per scratch refill in
// ExecuteMatrix. It trades scratch size ((K+dict)·colBlock floats) against
// amortization of the instruction stream walk.
const colBlock = 64

// ExecuteMatrix evaluates the program on an input matrix of shape [K, P]
// (e.g. an im2col lowering, one column per output pixel), producing the
// [M, P] result; a single input vector is the [K, 1] matrix. The float
// path uses the dequantized term values and matches a dense float GEMM on
// the dequantized weights up to accumulation order. Columns are processed
// in blocks so each dictionary partial sum is computed once per column with
// contiguous inner loops.
func (p *Program) ExecuteMatrix(cols *tensor.Tensor) *tensor.Tensor {
	if cols.Shape().Rank() != 2 || cols.Dim(0) != p.K {
		panic(fmt.Sprintf("ipe: ExecuteMatrix wants [K=%d, P] input, got %v", p.K, cols.Shape()))
	}
	pTotal := cols.Dim(1)
	out := tensor.New(p.M, pTotal)
	var s tensor.Scratch
	p.ExecuteMatrixInto(out.Data(), cols.Data(), pTotal, &s)
	return out
}

// ExecuteMatrixInto is ExecuteMatrix over raw row-major buffers: cols holds
// the [K, pTotal] input, dst receives the [M, pTotal] result (every element
// is written). Transient block buffers come from the caller's Scratch, so
// warmed steady-state execution performs no heap allocations. The scratch
// watermark is restored before returning. This interpreter is the bitwise
// anchor of the ipe-matrix family; serving runs Compiled.ExecuteMatrixIntoPar.
func (p *Program) ExecuteMatrixInto(dst, cols []float32, pTotal int, s *tensor.Scratch) {
	metrics.Count(metrics.KernelIPEInterp)
	checkMatrixBuffers("ExecuteMatrixInto", p.K, p.M, len(dst), len(cols), pTotal)
	cd, od := cols, dst
	nsym := p.NumSymbols()
	mark := s.Mark()
	scratch := s.Take(nsym * colBlock)
	acc := s.Take(colBlock)
	group := s.Take(colBlock)
	for c0 := 0; c0 < pTotal; c0 += colBlock {
		bw := min(colBlock, pTotal-c0)
		// Load the raw input rows for this column block.
		for i := 0; i < p.K; i++ {
			copy(scratch[i*colBlock:i*colBlock+bw], cd[i*pTotal+c0:i*pTotal+c0+bw])
		}
		// Build dictionary partial sums, each a vector add over the block.
		for j, pr := range p.Pairs {
			dst := scratch[(p.K+j)*colBlock : (p.K+j)*colBlock+bw]
			a := scratch[int(pr.A)*colBlock : int(pr.A)*colBlock+bw]
			b := scratch[int(pr.B)*colBlock : int(pr.B)*colBlock+bw]
			for i := range dst {
				dst[i] = a[i] + b[i]
			}
		}
		// Emit rows.
		for r := range p.Rows {
			for i := range acc[:bw] {
				acc[i] = 0
			}
			for _, t := range p.Rows[r].Terms {
				for i := range group[:bw] {
					group[i] = 0
				}
				for _, s := range t.Syms {
					src := scratch[int(s)*colBlock : int(s)*colBlock+bw]
					for i := range src {
						group[i] += src[i]
					}
				}
				for i := 0; i < bw; i++ {
					acc[i] += t.Value * group[i]
				}
			}
			copy(od[r*pTotal+c0:r*pTotal+c0+bw], acc[:bw])
		}
	}
	s.Release(mark)
}

// checkMatrixBuffers panics when dst/cols cannot hold the [M, pTotal] /
// [K, pTotal] matrices the named executor is about to touch. Shared by the
// interpreted and compiled matrix paths so every panic names the function
// actually called.
func checkMatrixBuffers(fn string, k, m, dstLen, colsLen, pTotal int) {
	if colsLen < k*pTotal || dstLen < m*pTotal {
		panic(fmt.Sprintf("ipe: %s buffers too small (|cols|=%d K·P=%d |dst|=%d M·P=%d)",
			fn, colsLen, k*pTotal, dstLen, m*pTotal))
	}
}
