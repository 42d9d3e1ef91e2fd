//go:build amd64 && !purego

package ipe

// SSE2 kernels (emitblock_amd64.s). SSE2 is part of the amd64 baseline
// (GOAMD64=v1), so there is no CPU-feature dispatch. Neither kernel checks
// bounds: callers pass only streams that compile has proved in range and
// buffers executeMatrixColsBlocked has sized. Each call covers at most one
// column block. The semantics are those of the Go twins in
// emitblock_generic.go.

// pinsNaNPayloads reports that the kernels also reproduce which NaN
// payload the interpreter's instructions keep when two NaNs meet: each
// instruction's destination operand is the one the Go compiler picks for
// Program.ExecuteMatrixInto, as FuzzCompiledMatrix checks.
const pinsNaNPayloads = true

// pairStream computes, for every entry i of the pair stream,
// scratch[pd[i]*bw:][:bw] = A + B, where an operand location l < k is input
// row l read in place at cols[l*pTotal:][:bw] and any other location is its
// block slab scratch[l*bw:][:bw].
//
//go:noescape
func pairStream(scratch, cols []float32, pa, pb, pd []int32, k, pTotal, bw int)

// emitChunk4 is the emit for one 4-column chunk over all rows: for every
// row r, dst[r*pTotal:][:4] = Σ_t values[t]·Σ_{l ∈ syms[termOff[t]:termOff[t+1]]}
// scratch[l*bw:][:4]. Every term has at least one symbol.
//
//go:noescape
func emitChunk4(dst, scratch []float32, syms, termOff []int32, values []float32, rowOff []int32, pTotal, bw int)

// emitChunk8 is emitChunk4 over the two adjacent chunks dst[r*pTotal:][:8]
// in one walk of the emit stream.
//
//go:noescape
func emitChunk8(dst, scratch []float32, syms, termOff []int32, values []float32, rowOff []int32, pTotal, bw int)
