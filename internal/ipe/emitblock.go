package ipe

import (
	"fmt"

	"repro/internal/tensor"
)

// Column-blocked executor for the compiled matrix path.
//
// Every column block of width bw ≤ colBlock runs the same four steps:
//
//  1. gather: copy the raw input rows the emit stream re-reads (gatherRows)
//     into bw-strided block slabs;
//  2. pair stream: scratch[pairDst[i]] = A + B per entry, where an operand
//     location below K reads its input row in place from cols and any
//     other location reads its block slab (pairStream);
//  3. emit: every row's acc = Σ value·(Σ slabs), sixteen columns per walk
//     of the emit stream (emitChunk16), then four (emitChunk4), with each
//     4-column chunk's accumulator and group sum held in one register;
//  4. a scalar emit for the bw%4 columns left over (emitColumns).
//
// Slabs are strided by the actual block width, so a narrow block (late
// SqueezeNet fire modules serve 4 or 16 columns) keeps its scratch
// contiguous and L1-resident rather than using 4/64 of every colBlock row.
//
// On amd64 pairStream and the two emits are SSE2 assembly
// (emitblock_amd64.s); elsewhere, or under the purego build tag, they are
// the Go loops in emitblock_generic.go. Every lane performs the identical
// operations in the identical order as the interpreter
// (Program.ExecuteMatrixInto): a group sum starts at +0 and adds its symbol
// slabs in stream order, the product is group·value, and the row
// accumulator starts at +0 and adds one product per term. Only the
// interleaving across a block's independent columns differs, which cannot
// change any element; TestCompiledMatrixSweep and FuzzCompiledMatrix
// enforce bit-identity, NaN payloads included where pinsNaNPayloads.

// executeMatrixColsBlocked processes input columns [lo, hi) (lo
// colBlock-aligned) against the flat streams, restoring the scratch
// watermark before returning.
func (c *Compiled) executeMatrixColsBlocked(dst, cols []float32, pTotal, lo, hi int, s *tensor.Scratch) {
	mark := s.Mark()
	scratch := s.Take(c.ScratchLen() * colBlock)
	// The kernels index without bounds checks. Lowering proved every
	// stream location < ScratchLen() and every input row < K, so scratch
	// (ScratchLen()·colBlock words) and these bounds cover every access of
	// every block below.
	if len(cols) < c.K*pTotal || len(dst) < c.M*pTotal || hi > pTotal {
		panic(fmt.Sprintf("ipe: executeMatrixColsBlocked buffers too small (|cols| %d, |dst| %d, cols [%d,%d) of %d)",
			len(cols), len(dst), lo, hi, pTotal))
	}
	for c0 := lo; c0 < hi; c0 += colBlock {
		bw := min(colBlock, hi-c0)
		for _, gr := range c.gatherRows {
			i := int(gr)
			copy(scratch[i*bw:i*bw+bw], cols[i*pTotal+c0:i*pTotal+c0+bw])
		}
		pairStream(scratch, cols[c0:], c.pairA, c.pairB, c.pairDst, c.K, pTotal, bw)
		cc := 0
		for ; cc+16 <= bw; cc += 16 {
			emitChunk16(dst[c0+cc:], scratch[cc:], c.syms, c.termOff, c.values, c.rowOff, pTotal, bw)
		}
		for ; cc+4 <= bw; cc += 4 {
			emitChunk4(dst[c0+cc:], scratch[cc:], c.syms, c.termOff, c.values, c.rowOff, pTotal, bw)
		}
		if cc < bw {
			emitColumns(dst[c0+cc:], scratch[cc:], c.syms, c.termOff, c.values, c.rowOff, pTotal, bw, bw-cc)
		}
	}
	s.Release(mark)
}

// emitColumns is the emit for n ≤ 4 adjacent columns: for every row r,
// dst[r*pTotal+x] = Σ_t values[t]·Σ_{l ∈ syms[termOff[t]:termOff[t+1]]}
// scratch[l*bw+x] for x < n. Its loops are the interpreter's
// (Program.ExecuteMatrixInto) over n columns, statement for statement, so
// the Go compiler makes the same choice of destination operand for every
// add — the choice that decides which NaN payload survives — in every
// build mode, the race detector's included.
func emitColumns(dst, scratch []float32, syms, termOff []int32, values []float32, rowOff []int32, pTotal, bw, n int) {
	var buf [8]float32
	acc, group := buf[:n:n], buf[4:4+n:4+n]
	for r := 0; r+1 < len(rowOff); r++ {
		for i := range acc {
			acc[i] = 0
		}
		for t := rowOff[r]; t < rowOff[r+1]; t++ {
			for i := range group {
				group[i] = 0
			}
			for _, l := range syms[termOff[t]:termOff[t+1]] {
				src := scratch[int(l)*bw : int(l)*bw+n]
				for i := range src {
					group[i] += src[i]
				}
			}
			for i := range acc {
				acc[i] += values[t] * group[i]
			}
		}
		copy(dst[r*pTotal:r*pTotal+n], acc)
	}
}
