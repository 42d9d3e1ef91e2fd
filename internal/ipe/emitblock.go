package ipe

import (
	"repro/internal/tensor"
)

// Register-blocked block executor for the compiled matrix path.
//
// Three changes over the PR-4 emit (see Program.ExecuteMatrixInto for the
// baseline's structure, which emitWide keeps):
//
//   - Block-local slabs are strided by the *actual* block width bw instead
//     of the fixed colBlock. Full blocks are identical, but a narrow final
//     block — and the whole execution for layers with few output pixels,
//     e.g. late SqueezeNet fire modules at 2x2 — shrinks its block scratch
//     by colBlock/bw and stops wasting 15/16 of every cache line: at bw=4
//     a K=512 layer's block scratch drops from ~256 KiB strided to ~16 KiB
//     contiguous, L1-resident.
//
//   - Narrow blocks (bw < emitWideCutoff) flip the emit nest: each
//     destination row walks its terms once per 4-wide column chunk with
//     the chunk accumulators and the term group sums held in locals —
//     straight-line unrolled Go over fixed-size sub-slices so the compiler
//     keeps them in registers. The destination is written once per chunk
//     and each symbol slab costs one bounds check and four loads, so the
//     emit does ~1 memory op per multiply-add. bw==4 blocks (one chunk)
//     additionally specialize the gather and pair stream.
//
//   - Wide blocks keep the baseline's fused slab passes (per-term decode
//     amortizes over >=32 columns there, and the streaming passes beat
//     register chunking once the block no longer fits in registers), with
//     two refinements: a row's first term *writes* its pass (0 + value *
//     group, folding away the zeroing pass over the destination), and
//     consecutive short terms fuse into a single pass when their combined
//     symbol count allows, halving destination traffic on encodings
//     dominated by 1-2 symbol terms.
//
// Per element every variant performs the identical addition chain in the
// identical order as the interpreter: the accumulator starts at 0 and adds
// value*group term by term, and each group sum starts as 0+firstSym and
// adds the remaining symbol slabs in stream order. Only the interleaving
// across a block's independent columns changes, which cannot affect any
// element's result — the conformance sweep enforces bit-identity against
// the interpreter across its full seed matrix.

// emitWideCutoff is the block width at or above which the fused-slab-pass
// emit beats the register-chunked emit (measured on the LeNet-5 and
// SqueezeNet conv shapes: streaming passes win once a term's decode is
// amortized over >=32 columns).
const emitWideCutoff = 32

// executeMatrixColsBlocked processes input columns [lo, hi) (lo
// colBlock-aligned) against the flat streams, restoring the scratch
// watermark before returning.
func (c *Compiled) executeMatrixColsBlocked(dst, cols []float32, pTotal, lo, hi int, s *tensor.Scratch) {
	mark := s.Mark()
	scratch := s.Take(c.ScratchLen() * colBlock)
	group := s.Take(colBlock)
	pa, pb, pd := c.pairA, c.pairB, c.pairDst
	K := c.K
	for c0 := lo; c0 < hi; c0 += colBlock {
		bw := min(colBlock, hi-c0)
		if bw == 4 {
			c.executeBlock4(dst, cols, scratch, pTotal, c0)
			continue
		}
		// Gather the raw input rows the emit stream re-reads into bw-strided
		// contiguous slabs.
		for _, gr := range c.gatherRows {
			i := int(gr)
			copy(scratch[i*bw:i*bw+bw], cols[i*pTotal+c0:i*pTotal+c0+bw])
		}
		// Pair stream: one vector add per entry into its compacted slab. The
		// raw-vs-slab branch per operand is perfectly predictable — every
		// stream position resolves the same way on every block.
		for i := range pd {
			d := scratch[int(pd[i])*bw : int(pd[i])*bw+bw]
			var a, b []float32
			if la := int(pa[i]); la < K {
				o := la*pTotal + c0
				a = cols[o : o+bw : o+bw]
			} else {
				o := la * bw
				a = scratch[o : o+bw : o+bw]
			}
			if lb := int(pb[i]); lb < K {
				o := lb*pTotal + c0
				b = cols[o : o+bw : o+bw]
			} else {
				o := lb * bw
				b = scratch[o : o+bw : o+bw]
			}
			_ = a[len(d)-1]
			_ = b[len(d)-1]
			for k := range d {
				d[k] = a[k] + b[k]
			}
		}
		if bw >= emitWideCutoff {
			c.emitWide(dst, scratch, group, pTotal, c0, bw)
		} else {
			c.emitNarrow(dst, scratch, pTotal, c0, bw)
		}
	}
	s.Release(mark)
}

// executeBlock4 runs one whole 4-column block — gather, pair stream, emit —
// with every slab a fixed 4-float sub-slice and all accumulators in locals.
// This is the serving shape for late SqueezeNet fire modules (2x2 feature
// maps).
func (c *Compiled) executeBlock4(dst, cols, scratch []float32, pTotal, c0 int) {
	K := c.K
	for _, gr := range c.gatherRows {
		i := int(gr)
		o := i*pTotal + c0
		src := cols[o : o+4 : o+4]
		d := scratch[i*4 : i*4+4 : i*4+4]
		d[0] = src[0]
		d[1] = src[1]
		d[2] = src[2]
		d[3] = src[3]
	}
	pa, pb, pd := c.pairA, c.pairB, c.pairDst
	for i := range pd {
		var a, b []float32
		if la := int(pa[i]); la < K {
			o := la*pTotal + c0
			a = cols[o : o+4 : o+4]
		} else {
			o := la * 4
			a = scratch[o : o+4 : o+4]
		}
		if lb := int(pb[i]); lb < K {
			o := lb*pTotal + c0
			b = cols[o : o+4 : o+4]
		} else {
			o := lb * 4
			b = scratch[o : o+4 : o+4]
		}
		o := int(pd[i]) * 4
		d := scratch[o : o+4 : o+4]
		d[0] = a[0] + b[0]
		d[1] = a[1] + b[1]
		d[2] = a[2] + b[2]
		d[3] = a[3] + b[3]
	}
	symStream, termOff, values, rowOff := c.syms, c.termOff, c.values, c.rowOff
	for r := 0; r < c.M; r++ {
		var a0, a1, a2, a3 float32
		for t := rowOff[r]; t < rowOff[r+1]; t++ {
			v := values[t]
			j0, j1 := int(termOff[t]), int(termOff[t+1])
			o := int(symStream[j0]) * 4
			s := scratch[o : o+4 : o+4]
			g0 := 0 + s[0]
			g1 := 0 + s[1]
			g2 := 0 + s[2]
			g3 := 0 + s[3]
			for j := j0 + 1; j < j1; j++ {
				o := int(symStream[j]) * 4
				s := scratch[o : o+4 : o+4]
				g0 += s[0]
				g1 += s[1]
				g2 += s[2]
				g3 += s[3]
			}
			a0 += v * g0
			a1 += v * g1
			a2 += v * g2
			a3 += v * g3
		}
		o := r*pTotal + c0
		out := dst[o : o+4 : o+4]
		out[0] = a0
		out[1] = a1
		out[2] = a2
		out[3] = a3
	}
}

// emitNarrow is the register-chunked emit for narrow blocks (4 < bw <
// emitWideCutoff, plus narrow final blocks of any width): per row, the
// column block is processed in 4-wide chunks (then scalars) with the chunk
// accumulators and per-term group sums in locals.
func (c *Compiled) emitNarrow(dst, scratch []float32, pTotal, c0, bw int) {
	symStream, termOff, values, rowOff := c.syms, c.termOff, c.values, c.rowOff
	for r := 0; r < c.M; r++ {
		out := dst[r*pTotal+c0 : r*pTotal+c0+bw]
		t0, t1 := rowOff[r], rowOff[r+1]
		cc := 0
		for ; cc+4 <= bw; cc += 4 {
			var a0, a1, a2, a3 float32
			for t := t0; t < t1; t++ {
				v := values[t]
				j0, j1 := int(termOff[t]), int(termOff[t+1])
				o := int(symStream[j0])*bw + cc
				s := scratch[o : o+4 : o+4]
				g0 := 0 + s[0]
				g1 := 0 + s[1]
				g2 := 0 + s[2]
				g3 := 0 + s[3]
				for j := j0 + 1; j < j1; j++ {
					o := int(symStream[j])*bw + cc
					s := scratch[o : o+4 : o+4]
					g0 += s[0]
					g1 += s[1]
					g2 += s[2]
					g3 += s[3]
				}
				a0 += v * g0
				a1 += v * g1
				a2 += v * g2
				a3 += v * g3
			}
			o := out[cc : cc+4 : cc+4]
			o[0] = a0
			o[1] = a1
			o[2] = a2
			o[3] = a3
		}
		for ; cc < bw; cc++ {
			var a float32
			for t := t0; t < t1; t++ {
				j0, j1 := int(termOff[t]), int(termOff[t+1])
				g := 0 + scratch[int(symStream[j0])*bw+cc]
				for j := j0 + 1; j < j1; j++ {
					g += scratch[int(symStream[j])*bw+cc]
				}
				a += values[t] * g
			}
			out[cc] = a
		}
	}
}

// slabW returns location l's block-local slab of width bw at stride bw.
func slabW(scratch []float32, l int32, bw int) []float32 {
	o := int(l) * bw
	return scratch[o : o+bw : o+bw]
}

// emitWide is the fused-slab-pass emit for full-width blocks: terms outer,
// columns inner. A row's first pass writes the destination (0 + value *
// group, subsuming the zeroing pass), consecutive terms with small
// combined symbol counts share one fused pass, and terms of four or more
// symbols fold four source slabs per group pass with the value multiply
// merged into the final pass.
func (c *Compiled) emitWide(dst, scratch, group []float32, pTotal, c0, bw int) {
	symStream, termOff, values, rowOff := c.syms, c.termOff, c.values, c.rowOff
	for r := 0; r < c.M; r++ {
		out := dst[r*pTotal+c0 : r*pTotal+c0+bw]
		t0, t1 := rowOff[r], rowOff[r+1]
		if t0 == t1 {
			for i := range out {
				out[i] = 0
			}
			continue
		}
		// First pass: write out = 0 + v*group instead of zeroing then
		// accumulating — the identical expression element for element.
		{
			t := t0
			ts := symStream[termOff[t]:termOff[t+1]]
			v := values[t]
			src0 := slabW(scratch, ts[0], bw)
			switch len(ts) {
			case 1:
				for i, sv := range src0 {
					out[i] = 0 + v*(0+sv)
				}
			case 2:
				s1 := slabW(scratch, ts[1], bw)
				_ = s1[len(src0)-1]
				for i, sv := range src0 {
					out[i] = 0 + v*((0+sv)+s1[i])
				}
			case 3:
				s1 := slabW(scratch, ts[1], bw)
				s2 := slabW(scratch, ts[2], bw)
				_ = s1[len(src0)-1]
				_ = s2[len(src0)-1]
				for i, sv := range src0 {
					out[i] = 0 + v*(((0+sv)+s1[i])+s2[i])
				}
			default:
				for i := range out {
					out[i] = 0
				}
				c.emitGroupTerm(out, scratch, group, ts, v, bw)
			}
		}
		for t := t0 + 1; t < t1; t++ {
			ts := symStream[termOff[t]:termOff[t+1]]
			v := values[t]
			// Fuse a (1,1)- or (2,1)/(1,2)-symbol pair of consecutive terms
			// into one pass: ((out + v1*g1) + v2*g2) element for element,
			// the identical chain with half the destination traffic.
			if n := len(ts); n <= 2 && t+1 < t1 {
				ts2 := symStream[termOff[t+1]:termOff[t+2]]
				if len(ts)+len(ts2) <= 3 {
					v2 := values[t+1]
					s0 := slabW(scratch, ts[0], bw)
					u0 := slabW(scratch, ts2[0], bw)
					_ = u0[len(s0)-1]
					switch {
					case n == 1 && len(ts2) == 1:
						for i, sv := range s0 {
							out[i] = (out[i] + v*(0+sv)) + v2*(0+u0[i])
						}
					case n == 2:
						s1 := slabW(scratch, ts[1], bw)
						_ = s1[len(s0)-1]
						for i, sv := range s0 {
							out[i] = (out[i] + v*((0+sv)+s1[i])) + v2*(0+u0[i])
						}
					default: // n == 1, len(ts2) == 2
						u1 := slabW(scratch, ts2[1], bw)
						_ = u1[len(s0)-1]
						for i, sv := range s0 {
							out[i] = (out[i] + v*(0+sv)) + v2*((0+u0[i])+u1[i])
						}
					}
					t++
					continue
				}
			}
			src0 := slabW(scratch, ts[0], bw)
			switch len(ts) {
			case 1:
				for i, sv := range src0 {
					out[i] += v * (0 + sv)
				}
			case 2:
				s1 := slabW(scratch, ts[1], bw)
				_ = s1[len(src0)-1]
				for i, sv := range src0 {
					out[i] += v * ((0 + sv) + s1[i])
				}
			case 3:
				s1 := slabW(scratch, ts[1], bw)
				s2 := slabW(scratch, ts[2], bw)
				_ = s1[len(src0)-1]
				_ = s2[len(src0)-1]
				for i, sv := range src0 {
					out[i] += v * (((0 + sv) + s1[i]) + s2[i])
				}
			default:
				c.emitGroupTerm(out, scratch, group, ts, v, bw)
			}
		}
	}
}

// emitGroupTerm accumulates one >=4-symbol term into out via the staged
// group buffer, folding four source slabs per pass and merging the value
// multiply into the final pass (the baseline emit's long-term path).
func (c *Compiled) emitGroupTerm(out, scratch, group []float32, ts []int32, v float32, bw int) {
	src0 := slabW(scratch, ts[0], bw)
	g := group[:bw]
	for i, sv := range src0 {
		g[i] = 0 + sv
	}
	rest := ts[1:]
	tail := (len(rest)-1)%4 + 1
	for len(rest) > tail {
		s1 := slabW(scratch, rest[0], bw)
		s2 := slabW(scratch, rest[1], bw)
		s3 := slabW(scratch, rest[2], bw)
		s4 := slabW(scratch, rest[3], bw)
		_ = s1[len(g)-1]
		_ = s2[len(g)-1]
		_ = s3[len(g)-1]
		_ = s4[len(g)-1]
		for i := range g {
			g[i] = (((g[i] + s1[i]) + s2[i]) + s3[i]) + s4[i]
		}
		rest = rest[4:]
	}
	switch tail {
	case 1:
		s1 := slabW(scratch, rest[0], bw)
		_ = s1[len(g)-1]
		for i, gv := range g {
			out[i] += v * (gv + s1[i])
		}
	case 2:
		s1 := slabW(scratch, rest[0], bw)
		s2 := slabW(scratch, rest[1], bw)
		_ = s1[len(g)-1]
		_ = s2[len(g)-1]
		for i, gv := range g {
			out[i] += v * ((gv + s1[i]) + s2[i])
		}
	case 3:
		s1 := slabW(scratch, rest[0], bw)
		s2 := slabW(scratch, rest[1], bw)
		s3 := slabW(scratch, rest[2], bw)
		_ = s1[len(g)-1]
		_ = s2[len(g)-1]
		_ = s3[len(g)-1]
		for i, gv := range g {
			out[i] += v * (((gv + s1[i]) + s2[i]) + s3[i])
		}
	default:
		s1 := slabW(scratch, rest[0], bw)
		s2 := slabW(scratch, rest[1], bw)
		s3 := slabW(scratch, rest[2], bw)
		s4 := slabW(scratch, rest[3], bw)
		_ = s1[len(g)-1]
		_ = s2[len(g)-1]
		_ = s3[len(g)-1]
		_ = s4[len(g)-1]
		for i, gv := range g {
			out[i] += v * ((((gv + s1[i]) + s2[i]) + s3[i]) + s4[i])
		}
	}
}
