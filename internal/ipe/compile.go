package ipe

import (
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Compilation of a Program into the form the serving paths execute.
//
// The interpreter walks the pointer-heavy Rows[r].Terms[t].Syms
// slice-of-slices on every input and gives every dictionary entry its own
// scratchpad word, so the working set scales with NumSymbols(). Compiled is
// the one-time lowering of that structure into flat struct-of-arrays
// streams with a liveness-based slot plan baked in:
//
//   - the pair dictionary becomes three parallel []int32 arrays
//     (source A, source B, destination), each element a *location* in a
//     slot-compacted scratchpad of K + NumSlots words — entries whose
//     lifetimes do not overlap share a slot, so the hot working set is
//     L1/L2-resident even for large dictionaries;
//   - dictionary entries never reached from any emit term are eliminated
//     before slot assignment (DeadPairs counts them); surviving entries
//     keep the encoder's creation order, which clusters related slabs and
//     is what the emit phase's cache locality comes from;
//   - the emit side becomes one CSR structure: a flat syms stream indexed
//     by termOff, per-term values, and rowOff over terms.
//
// The one executor of this form, ExecuteMatrixIntoPar, performs the same
// floating-point operations in the same order as the interpreter's
// Program.ExecuteMatrixInto, so results are bit-identical; the conformance
// harness (internal/conformance) enforces that across its full seed sweep.
// A single vector is a one-column matrix.

// Compiled is the flat, slot-compacted executable form of a Program.
type Compiled struct {
	// K and M mirror the source program's input and output sizes.
	K, M int
	// NumSlots is the number of scratchpad words beyond the K input words
	// (≤ live dictionary entries; equality means no reuse was possible).
	NumSlots int
	// LivePairs and DeadPairs partition the source dictionary into entries
	// that made it into the pair stream and entries eliminated because no
	// emit term (transitively) reads them.
	LivePairs, DeadPairs int

	// Pair stream: entry i computes scratch[pairDst[i]] =
	// scratch[pairA[i]] + scratch[pairB[i]]. All three are locations in
	// [0, K+NumSlots): raw input i lives at location i, a dictionary entry
	// at K + its slot.
	pairA, pairB, pairDst []int32

	// Emit stream, CSR over rows → terms → symbol locations: row r spans
	// terms rowOff[r]..rowOff[r+1], term t sums the locations
	// syms[termOff[t]:termOff[t+1]] and contributes values[t]·Σ. The
	// matrix executor walks this form: per-term decode cost is amortized
	// over a whole column block.
	syms    []int32
	termOff []int32
	values  []float32
	rowOff  []int32

	// gatherRows lists the raw inputs (locations < K) the emit stream
	// reads. Only their column slabs are gathered into block scratch —
	// emit terms re-read slabs, so those must be contiguous — while raw
	// inputs consumed solely by the pair phase are read from cols in
	// place, exactly once.
	gatherRows []int32
}

// ScratchLen returns the scratchpad length (in words) the compiled
// executors need: the K input words plus the compacted slots.
func (c *Compiled) ScratchLen() int { return c.K + c.NumSlots }

// compileMu guards the lazy compiled-form cache on Program. Compilation is
// linear in the program and happens once per program, so a package-wide
// lock (contended only on first use) is cheaper than widening Program with
// a copy-hostile sync type — serialize.go overwrites whole Program values.
var compileMu sync.RWMutex

// Compiled returns the compiled form of the program, lowering it on first
// use and caching the result. A Factorize program is born with its streams,
// equal to what compile makes of it, and its terms' Syms are windows of
// their syms, so the two share that storage. The cache is reset whenever
// the Program value is overwritten (UnmarshalBinary builds a fresh value);
// callers that mutate Pairs/Rows in place must not reuse a previously
// obtained Compiled, nor mutate a Factorize program's Syms.
func (p *Program) Compiled() *Compiled {
	compileMu.RLock()
	c := p.compiled
	compileMu.RUnlock()
	if c != nil {
		return c
	}
	compileMu.Lock()
	defer compileMu.Unlock()
	if p.compiled == nil {
		p.compiled = compile(p)
	}
	return p.compiled
}

// compile lowers p. It reads only Pairs/Rows/K/M (Depth is not consulted,
// so hand-built test programs compile too), and it panics naming the defect
// when those could send the unchecked matrix kernels outside the
// scratchpad (checkStreams).
func compile(p *Program) *Compiled {
	if err := p.checkStreams(); err != nil {
		panic("ipe: cannot lower program: " + err.Error())
	}
	d := len(p.Pairs)

	// Liveness: an entry is live iff some emit term reaches it, directly
	// or through later live pairs. Backward sweep over the dependency
	// order.
	live := make([]bool, d)
	for _, row := range p.Rows {
		for _, t := range row.Terms {
			for _, s := range t.Syms {
				if int(s) >= p.K {
					live[int(s)-p.K] = true
				}
			}
		}
	}
	mark := func(s int32) {
		if int(s) >= p.K {
			live[int(s)-p.K] = true
		}
	}
	for j := d - 1; j >= 0; j-- {
		if live[j] {
			mark(p.Pairs[j].A)
			mark(p.Pairs[j].B)
		}
	}

	// Schedule: live entries in original (dependency) order. Keeping the
	// encoder's creation order matters for speed: BPE mints related pairs
	// adjacently, and emit terms read creation-adjacent slabs — sorting by
	// expansion depth (tried for adder-tree stage framing) scatters that
	// locality and measurably slows the emit phase.
	order := make([]int, 0, d)
	for j := 0; j < d; j++ {
		if live[j] {
			order = append(order, j)
		}
	}
	nLive := len(order)
	pos := make([]int, d) // original entry → scheduled position
	for i, j := range order {
		pos[j] = i
	}

	// Lifetimes in scheduled order: lastPair[i] is the last pair step that
	// reads entry order[i] (-1 if none); rowRead pins the slot for the
	// whole emit phase.
	lastPair := make([]int, nLive)
	rowRead := make([]bool, nLive)
	for i := range lastPair {
		lastPair[i] = -1
	}
	useAt := func(s int32, step int) {
		if int(s) >= p.K {
			i := pos[int(s)-p.K]
			if step > lastPair[i] {
				lastPair[i] = step
			}
		}
	}
	for i, j := range order {
		useAt(p.Pairs[j].A, i)
		useAt(p.Pairs[j].B, i)
	}
	for _, row := range p.Rows {
		for _, t := range row.Terms {
			for _, s := range t.Syms {
				if int(s) >= p.K {
					rowRead[pos[int(s)-p.K]] = true
				}
			}
		}
	}

	// Linear-scan slot allocation over the scheduled pair stream (register
	// allocation on the decode pipeline, which shrinks the scratchpad the
	// hardware must provision): a slot frees one step after its owner's
	// last pair read, entries read by the emit phase never free, and the
	// lowest free slot wins for determinism.
	slotOf := make([]int32, nLive)
	expiring := make(map[int][]int32)
	var free []int32
	var next int32
	for i := range order {
		if dead, ok := expiring[i]; ok {
			free = append(free, dead...)
			sort.Slice(free, func(a, b int) bool { return free[a] < free[b] })
			delete(expiring, i)
		}
		var slot int32
		if len(free) > 0 {
			slot = free[0]
			free = free[1:]
		} else {
			slot = next
			next++
		}
		slotOf[i] = slot
		if !rowRead[i] && lastPair[i] >= 0 {
			expiring[lastPair[i]+1] = append(expiring[lastPair[i]+1], slot)
		}
	}

	c := &Compiled{
		K: p.K, M: p.M,
		NumSlots:  int(next),
		LivePairs: nLive,
		DeadPairs: d - nLive,
	}

	// Location of a symbol in the compacted scratchpad. Safe at any read
	// site: a pair operand's slot cannot be recycled before the reading
	// pair (lastPair ≥ reader's step), and emit-read slots never recycle.
	loc := func(s int32) int32 {
		if int(s) < p.K {
			return s
		}
		return int32(p.K) + slotOf[pos[int(s)-p.K]]
	}

	c.pairA = make([]int32, nLive)
	c.pairB = make([]int32, nLive)
	c.pairDst = make([]int32, nLive)
	for i, j := range order {
		c.pairA[i] = loc(p.Pairs[j].A)
		c.pairB[i] = loc(p.Pairs[j].B)
		c.pairDst[i] = int32(p.K) + slotOf[i]
	}

	var nTerms, nSyms int
	for _, row := range p.Rows {
		nTerms += len(row.Terms)
		for _, t := range row.Terms {
			nSyms += len(t.Syms)
		}
	}
	c.syms = make([]int32, 0, nSyms)
	c.termOff = make([]int32, 1, nTerms+1)
	c.values = make([]float32, 0, nTerms)
	c.rowOff = make([]int32, 1, p.M+1)
	for _, row := range p.Rows {
		for _, t := range row.Terms {
			// Terms without symbols are rejected by Program.Validate;
			// skipping them here keeps the executors free of empty-group
			// guards even on unvalidated inputs.
			if len(t.Syms) == 0 {
				continue
			}
			for _, s := range t.Syms {
				c.syms = append(c.syms, loc(s))
			}
			c.termOff = append(c.termOff, int32(len(c.syms)))
			c.values = append(c.values, t.Value)
		}
		c.rowOff = append(c.rowOff, int32(len(c.values)))
	}
	emitReads := make([]bool, p.K)
	for _, l := range c.syms {
		if int(l) < p.K {
			emitReads[l] = true
		}
	}
	for l, ok := range emitReads {
		if ok {
			c.gatherRows = append(c.gatherRows, int32(l))
		}
	}
	return c
}

// ExecuteMatrixIntoPar is the compiled column-blocked matrix executor: cols
// holds the [K, pTotal] input, dst receives the [M, pTotal] result. It
// shards over colBlock-aligned column ranges on the given parallelism
// context, each shard drawing its block scratchpad — ScratchLen()·colBlock
// words, NumSlots compacted slabs past the inputs instead of the
// interpreter's per-entry slabs — from its private scratch (one shard, or
// one block, runs serially on shard 0's scratch). Aligned shard boundaries put every column
// in the same block position with the same arithmetic as the one-shard
// walk, so results are bit-identical for any shard count, and bit-identical
// to Program.ExecuteMatrixInto; see emitblock.go for the column walk and
// its SSE2 kernels.
func (c *Compiled) ExecuteMatrixIntoPar(dst, cols []float32, pTotal int, par *tensor.Par) {
	metrics.Count(metrics.KernelIPECompiled)
	checkMatrixBuffers("compiled ExecuteMatrixIntoPar", c.K, c.M, len(dst), len(cols), pTotal)
	if par.Parallel() && pTotal > colBlock {
		par.ForBlocks(pTotal, colBlock, func(shard, lo, hi int) {
			c.executeMatrixColsBlocked(dst, cols, pTotal, lo, hi, par.Scratch(shard))
		})
		return
	}
	c.executeMatrixColsBlocked(dst, cols, pTotal, 0, pTotal, par.Scratch(0))
}
