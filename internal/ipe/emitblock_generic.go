//go:build !amd64 || purego

package ipe

// Go twins of the SSE2 kernels in emitblock_amd64.s, for other
// architectures and the purego build. They perform the same operations in
// the same order, lane for lane, so every result that is not a NaN is
// bit-identical to the interpreter's. Which payload survives when two NaNs
// meet depends on which operand the compiler makes an instruction's
// destination, which Go leaves to the compiler; these twins do not pin it.
const pinsNaNPayloads = false

// pairStream computes, for every entry i of the pair stream,
// scratch[pd[i]*bw:][:bw] = A + B, where an operand location l < k is input
// row l read in place at cols[l*pTotal:][:bw] and any other location is its
// block slab scratch[l*bw:][:bw].
func pairStream(scratch, cols []float32, pa, pb, pd []int32, k, pTotal, bw int) {
	for i := range pd {
		var a, b []float32
		if l := int(pa[i]); l < k {
			a = cols[l*pTotal : l*pTotal+bw]
		} else {
			a = scratch[l*bw : l*bw+bw]
		}
		if l := int(pb[i]); l < k {
			b = cols[l*pTotal : l*pTotal+bw]
		} else {
			b = scratch[l*bw : l*bw+bw]
		}
		d := scratch[int(pd[i])*bw : int(pd[i])*bw+bw]
		_, _ = a[len(d)-1], b[len(d)-1]
		for x := range d {
			d[x] = a[x] + b[x]
		}
	}
}

// pairStream1 is pairStream for one column whose inputs are already in
// scratch: scratch[pd[i]] = scratch[pa[i]] + scratch[pb[i]].
func pairStream1(scratch []float32, pa, pb, pd []int32) {
	for i := range pd {
		scratch[pd[i]] = scratch[pa[i]] + scratch[pb[i]]
	}
}

// emitChunk4 is the emit for one 4-column chunk over all rows, with the
// chunk's group sums and accumulators in locals.
func emitChunk4(dst, scratch []float32, syms, termOff []int32, values []float32, rowOff []int32, pTotal, bw int) {
	for r := 0; r+1 < len(rowOff); r++ {
		var a0, a1, a2, a3 float32
		for t := rowOff[r]; t < rowOff[r+1]; t++ {
			var g0, g1, g2, g3 float32
			for _, l := range syms[termOff[t]:termOff[t+1]] {
				s := scratch[int(l)*bw : int(l)*bw+4 : int(l)*bw+4]
				g0 += s[0]
				g1 += s[1]
				g2 += s[2]
				g3 += s[3]
			}
			v := values[t]
			a0 += v * g0
			a1 += v * g1
			a2 += v * g2
			a3 += v * g3
		}
		o := dst[r*pTotal : r*pTotal+4 : r*pTotal+4]
		o[0], o[1], o[2], o[3] = a0, a1, a2, a3
	}
}

// emitChunk1 is emitChunk4 for the one column dst[r*pTotal], written
// statement for statement like the interpreter's emit
// (Program.ExecuteMatrixInto).
func emitChunk1(dst, scratch []float32, syms, termOff []int32, values []float32, rowOff []int32, pTotal, bw int) {
	for r := 0; r+1 < len(rowOff); r++ {
		var acc float32
		for t := rowOff[r]; t < rowOff[r+1]; t++ {
			var group float32
			for _, l := range syms[termOff[t]:termOff[t+1]] {
				group += scratch[int(l)*bw]
			}
			acc += values[t] * group
		}
		dst[r*pTotal] = acc
	}
}

// emitChunk16 is emitChunk4 over four adjacent chunks.
func emitChunk16(dst, scratch []float32, syms, termOff []int32, values []float32, rowOff []int32, pTotal, bw int) {
	for c := 0; c < 16; c += 4 {
		emitChunk4(dst[c:], scratch[c:], syms, termOff, values, rowOff, pTotal, bw)
	}
}
