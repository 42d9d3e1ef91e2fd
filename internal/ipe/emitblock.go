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
//     other location reads its block slab (pairStream); a one-column
//     input is copied whole instead, and its pair stream reads scratch
//     alone (pairStream1);
//  3. emit: every row's acc = Σ value·(Σ slabs), sixteen columns per walk
//     of the emit stream (emitChunk16), then four (emitChunk4), with each
//     4-column chunk's accumulator and group sum held in one register;
//  4. one scalar walk per column of the bw%4 left over (emitChunk1): a
//     dense layer's single item, or a conv block's ragged edge.
//
// Slabs are strided by the actual block width, so a narrow block (late
// SqueezeNet fire modules serve 4 or 16 columns) keeps its scratch
// contiguous and L1-resident rather than using 4/64 of every colBlock row.
//
// On amd64 the two pair streams and the three emits are SSE2 assembly
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
		if pTotal == 1 {
			// One column: the input vector already is the K raw slabs, so
			// it is copied whole and every pair operand is read from
			// scratch.
			copy(scratch[:c.K], cols[:c.K])
			pairStream1(scratch, c.pairA, c.pairB, c.pairDst)
		} else {
			for _, gr := range c.gatherRows {
				i := int(gr)
				copy(scratch[i*bw:i*bw+bw], cols[i*pTotal+c0:i*pTotal+c0+bw])
			}
			pairStream(scratch, cols[c0:], c.pairA, c.pairB, c.pairDst, c.K, pTotal, bw)
		}
		cc := 0
		for ; cc+16 <= bw; cc += 16 {
			emitChunk16(dst[c0+cc:], scratch[cc:], c.syms, c.termOff, c.values, c.rowOff, pTotal, bw)
		}
		for ; cc+4 <= bw; cc += 4 {
			emitChunk4(dst[c0+cc:], scratch[cc:], c.syms, c.termOff, c.values, c.rowOff, pTotal, bw)
		}
		for ; cc < bw; cc++ {
			emitChunk1(dst[c0+cc:], scratch[cc:], c.syms, c.termOff, c.values, c.rowOff, pTotal, bw)
		}
	}
	s.Release(mark)
}
