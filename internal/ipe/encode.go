package ipe

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/quant"
)

// sequence is one (row, value) index set during encoding. syms starts as
// the sorted raw indices whose code equals code in the row and shrinks as
// pairs merge.
type sequence struct {
	row  int
	code int32
	syms []int32
}

// candidate is one mergeable pair of the current round: its key and count,
// and the pair-table slot that receives its symbol if it makes the budget.
type candidate struct {
	key   uint64
	count int32
	slot  uint32
}

// encoder carries the mutable merge state. Every slice and the pair table
// keep their storage between rounds and, through the pool and free list in
// pairtable.go, between Encode calls.
type encoder struct {
	cfg   Config
	k     int
	seqs  []sequence
	idx   []int32 // storage behind every sequence's syms
	pairs []Pair  // provisional dictionary
	depth []int32 // per provisional dictionary entry
	tile  []int32 // per symbol (raw + provisional)
	table pairTable
	cands []candidate
}

func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func keyPair(k uint64) (int32, int32) {
	return int32(uint32(k >> 32)), int32(uint32(k))
}

// Encode builds an index-pair-encoded program from a quantized weight
// tensor. Dimension 0 of the tensor is the output (row) dimension; all
// remaining dimensions are flattened into the reduction dimension K. The
// zero code carries no work and is skipped entirely, so pruning-induced
// sparsity is exploited for free.
func Encode(q *quant.Quantized, cfg Config) (*Program, Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if q.Shape.Rank() < 2 {
		return nil, Stats{}, fmt.Errorf("ipe: need rank >= 2 weight, got %v", q.Shape)
	}
	m := q.Shape[0]
	if m == 0 || q.NumElements() == 0 {
		return nil, Stats{}, fmt.Errorf("ipe: empty weight %v", q.Shape)
	}
	k := q.NumElements() / m

	enc := newEncoder(cfg, k)
	defer enc.release()
	stats := Stats{}
	enc.appendSequences(q, 0, &stats)
	enc.run(&stats)

	prog := enc.buildProgramScaled(m, q.Bits, q.RowScale, &stats)
	return prog, stats, nil
}

// Factorize builds the value-factorized form of a quantized weight tensor
// (dimension 0 = rows, the rest flattened): the Program Encode starts from,
// before any pair is merged. Its dictionary is empty, and each row holds one
// term per distinct non-zero code whose Syms are the raw input indices
// carrying that code, ascending (quant.GroupRows). This is the UCNN-style
// baseline of the evaluation, and it runs on the same executors as an
// encoded program.
//
// With an empty dictionary, lowering is the identity on the symbol layout,
// so the compiled streams come out of the same row grouping and Compiled
// returns them without running compile (which they equal): syms is the
// grouping's index array, and the terms' Syms are windows of it, so the
// program and its streams share that storage.
func Factorize(q *quant.Quantized) *Program {
	m := q.Shape[0]
	k := q.NumElements() / m
	p := &Program{K: k, M: m, Bits: q.Bits, Rows: make([]Row, m)}
	c := &Compiled{K: k, M: m, pairA: []int32{}, pairB: []int32{}, pairDst: []int32{}, rowOff: make([]int32, m+1)}
	s := factorPool.Get().(*factorScratch)
	s.read = slices.Grow(s.read[:0], k)[:k]
	codes, values, ends, read := s.codes[:0], s.values[:0], s.ends[:0], s.read
	unread := k // columns no term has read yet; most layers read all after a few rows
	var end int32
	syms := q.GroupRows(nil, func(r int, groups []quant.RowGroup) {
		scale := q.RowScale(r)
		for _, g := range groups {
			codes = append(codes, g.Code)
			values = append(values, float32(g.Code)*scale)
			end += int32(len(g.Idx))
			ends = append(ends, end)
			if unread == 0 {
				continue
			}
			for _, i := range g.Idx {
				if !read[i] {
					read[i] = true
					unread--
				}
			}
		}
		c.rowOff[r+1] = int32(len(codes))
	})
	if syms == nil { // an all-zero matrix: empty streams, as compile makes them
		syms = []int32{}
	}
	n := len(codes)
	c.syms = syms
	c.termOff = make([]int32, n+1)
	copy(c.termOff[1:], ends)
	c.values = make([]float32, n)
	copy(c.values, values)
	terms := make([]Term, n)
	for t := range terms {
		lo, hi := c.termOff[t], c.termOff[t+1]
		terms[t] = Term{Code: codes[t], Value: values[t], Syms: syms[lo:hi:hi]}
	}
	for r := range p.Rows {
		// Rows GroupRows did not visit (all zero) carry the offset before them.
		lo, hi := c.rowOff[r], max(c.rowOff[r+1], c.rowOff[r])
		c.rowOff[r+1] = hi
		if hi > lo {
			p.Rows[r].Terms = terms[lo:hi:hi]
		}
	}
	if nRead := k - unread; nRead > 0 {
		c.gatherRows = make([]int32, 0, nRead)
		for i, ok := range read {
			if ok {
				c.gatherRows = append(c.gatherRows, int32(i))
			}
		}
	}
	clear(read)
	s.codes, s.values, s.ends = codes, values, ends
	factorPool.Put(s)
	p.compiled = c
	return p
}

// factorScratch is Factorize's per-call working storage, kept between calls
// in factorPool: the terms' codes, values and stream ends before they are
// copied to their exact sizes, and which inputs the terms read. read is
// all false whenever a scratch is in the pool.
type factorScratch struct {
	codes  []int32
	values []float32
	ends   []int32
	read   []bool
}

var factorPool = sync.Pool{New: func() any { return new(factorScratch) }}

// Sparse builds the compressed-sparse-row form of a quantized weight tensor
// (dimension 0 = rows, the rest flattened) as a Program: the degenerate
// value-factorized sum with no value shared. Every entry whose dequantized
// value is non-zero becomes one term of its row, in ascending column order,
// with that value as the coefficient and a one-symbol window of a single
// exact-size array as Syms. Its dictionary is empty. On the IPE executors a
// term's group sum is +0 + x[i], so each output accumulates Value·x[i] in
// column order: the CSR loop. This is the sparse baseline of the
// evaluation.
func Sparse(q *quant.Quantized) *Program {
	m := q.Shape[0]
	p := &Program{K: q.NumElements() / m, M: m, Bits: q.Bits, Rows: make([]Row, m)}
	nnz := CountCodes(q).CSR
	syms := make([]int32, nnz)
	terms := make([]Term, 0, nnz)
	nonzeros(q, func(r, i int, code int32, v float32) {
		t := len(terms)
		syms[t] = int32(i)
		terms = append(terms, Term{Code: code, Value: v, Syms: syms[t : t+1 : t+1]})
		// terms never outgrows its capacity, so each row's window grows in
		// place over its contiguous run.
		n := len(p.Rows[r].Terms) + 1
		p.Rows[r].Terms = terms[t+1-n : t+1 : t+1]
	})
	return p
}

// Counts is what the factorized and CSR cost models need to know of a
// quantized matrix (dimension 0 = rows, the rest flattened): the sizes of
// Factorize(q) and Sparse(q), without building either.
type Counts struct {
	// K is the reduction length, the entries per row.
	K int64
	// Nonzeros counts the entries whose code is non-zero (quant.GroupRows'
	// rule): Factorize(q)'s stream symbols.
	Nonzeros int64
	// Groups counts the distinct non-zero codes of each row, summed over
	// the rows: Factorize(q)'s terms.
	Groups int64
	// CSR counts the entries whose dequantized value is non-zero
	// (nonzeros' rule): Sparse(q)'s terms.
	CSR int64
}

// CountCodes counts q's Counts in one walk of its codes, after a scan for
// the code span that sizes the per-row bitmap of codes present.
func CountCodes(q *quant.Quantized) Counts {
	m := q.Shape[0]
	if m == 0 {
		return Counts{}
	}
	k := len(q.Codes) / m
	c := Counts{K: int64(k)}
	if k == 0 {
		return c
	}
	var lo, hi int32
	for _, code := range q.Codes {
		lo, hi = min(lo, code), max(hi, code)
	}
	present := make([]uint64, (int64(hi)-int64(lo))/64+1)
	zero := uint32(-lo) // the zero code's bit
	for r := 0; r < m; r++ {
		row := q.Codes[r*k : (r+1)*k]
		var nz int64
		clear(present)
		for _, code := range row {
			b := uint32(code - lo)
			present[b/64] |= 1 << (b % 64)
			nz += nonzero(code)
		}
		groups := -int64(present[zero/64] >> (zero % 64) & 1)
		for _, w := range present {
			groups += int64(bits.OnesCount64(w))
		}
		c.Nonzeros += nz
		c.Groups += groups
		c.CSR += rowCSR(row, q.ChannelParams(r*k), nz)
	}
	return c
}

// nonzero is 1 when x is non-zero and 0 otherwise, without a branch: x|-x
// has its sign bit set exactly when x is non-zero.
func nonzero(x int32) int64 { return int64(uint32(x|-x) >> 31) }

// rowCSR counts the entries of one row whose dequantized value under p is
// non-zero (nonzeros' rule), given the row's nz non-zero codes, from the
// scale's class alone: a zero scale zeroes every code, an infinite or NaN
// one zeroes none (∞·0 and NaN·d are NaN), and a finite non-zero one
// zeroes exactly the zero point, because a non-zero integer times it is at
// least the smallest subnormal in magnitude and never rounds to zero.
func rowCSR(row []int32, p quant.Params, nz int64) int64 {
	switch s := float64(p.Scale); {
	case s == 0:
		return 0
	case math.IsInf(s, 0) || math.IsNaN(s):
		return int64(len(row))
	case p.ZeroPoint == 0:
		return nz
	}
	var n int64
	for _, code := range row {
		n += nonzero(code - p.ZeroPoint)
	}
	return n
}

// Factorized returns the per-input-vector cost of Factorize(q) for the
// matrix q the counts came from, equal to Factorize(q).Cost(). Counted over
// a whole grouped convolution's weights it equals the PixelCost of
// FactorizeConv's layer, every group having the same reduction length.
func (c Counts) Factorized() Cost {
	return Cost{Adds: c.Nonzeros, Muls: c.Groups, StreamSymbols: c.Nonzeros, ScratchWords: c.K}
}

// nonzeros visits every entry of q (dimension 0 = rows) whose dequantized
// value is non-zero, row by row in ascending column order, with its code
// relative to the zero point and that value. The value is
// quant.Quantized.Dequantize's expression, so the visited entries are those
// a CSR matrix of the dequantized weights keeps.
func nonzeros(q *quant.Quantized, visit func(r, i int, code int32, v float32)) {
	m := q.Shape[0]
	if m == 0 || len(q.Codes) == 0 {
		return
	}
	k := len(q.Codes) / m
	for r := 0; r < m; r++ {
		p := q.ChannelParams(r * k)
		for i, c := range q.Codes[r*k : (r+1)*k] {
			if v := p.Scale * float32(c-p.ZeroPoint); v != 0 {
				visit(r, i, c-p.ZeroPoint, v)
			}
		}
	}
}

// appendSequences adds the (row, value) index sets of one quantized matrix,
// with its rows mapped to the global row space starting at rowOffset. Rows
// and, within a row, codes arrive in ascending order (quant.GroupRows).
func (e *encoder) appendSequences(q *quant.Quantized, rowOffset int, stats *Stats) {
	e.idx = q.GroupRows(e.idx, func(row int, groups []quant.RowGroup) {
		for _, g := range groups {
			stats.InputSymbols += len(g.Idx)
			e.seqs = append(e.seqs, sequence{row: rowOffset + row, code: g.Code, syms: g.Idx})
		}
	})
}

// symDepth returns the depth of any symbol id.
func (e *encoder) symDepth(s int32) int32 {
	if int(s) < e.k {
		return 0
	}
	return e.depth[int(s)-e.k]
}

// pairDepth returns the depth a symbol merging (a, b) would have.
func (e *encoder) pairDepth(a, b int32) int32 {
	return max(e.symDepth(a), e.symDepth(b)) + 1
}

// legalPair reports whether merging (a, b) respects the depth and tile
// constraints.
func (e *encoder) legalPair(a, b int32) bool {
	if e.cfg.TileSize > 0 && e.tile[a] != e.tile[b] {
		return false
	}
	return e.cfg.MaxDepth <= 0 || int(e.pairDepth(a, b)) <= e.cfg.MaxDepth
}

// allocSymbol appends a new dictionary entry for the pair (a, b) and
// returns its symbol id.
func (e *encoder) allocSymbol(a, b int32) int32 {
	e.depth = append(e.depth, e.pairDepth(a, b))
	e.pairs = append(e.pairs, Pair{A: a, B: b})
	e.tile = append(e.tile, e.tile[a]) // == tile[b] under the constraint
	return int32(e.k + len(e.pairs) - 1)
}

// run merges under the configured policy until nothing more merges, then
// closes the merge statistics.
func (e *encoder) run(stats *Stats) {
	switch e.cfg.Policy {
	case PolicyGreedy:
		e.runGreedy(stats)
	default:
		e.runLayered(stats)
	}
	stats.Merges = len(e.pairs)
	for _, s := range e.seqs {
		stats.OutputSymbols += len(s.syms)
	}
}

// countAdjacent refills the pair table with the canonical adjacent pairs of
// all sequences, dropping the previous round's counts and symbols.
func (e *encoder) countAdjacent() {
	e.table.reset()
	for _, s := range e.seqs {
		for i := 0; i+1 < len(s.syms); i++ {
			e.table.add(pairKey(s.syms[i], s.syms[i+1]))
		}
	}
}

// collectCandidates lists every counted pair that repeats often enough and
// may legally merge.
func (e *encoder) collectCandidates() {
	minCount := e.cfg.minCount()
	e.cands = e.cands[:0]
	for _, pos := range e.table.used {
		s := e.table.slots[pos]
		if int(s.count) < minCount {
			continue
		}
		if a, b := keyPair(s.key); e.legalPair(a, b) {
			e.cands = append(e.cands, candidate{key: s.key, count: s.count, slot: pos})
		}
	}
}

// assign creates the dictionary entry of a candidate and marks its pair for
// replacement.
func (e *encoder) assign(c candidate) {
	a, b := keyPair(c.key)
	e.table.slots[c.slot].sym = e.allocSymbol(a, b)
}

// mergeOrder ranks candidates by count descending, then key ascending: a
// total order (keys are unique), so the dictionary never depends on the
// order the table enumerates pairs in.
func mergeOrder(x, y candidate) int {
	return cmp.Or(cmp.Compare(y.count, x.count), cmp.Compare(x.key, y.key))
}

// runLayered performs batched merge rounds until no pair repeats or the
// dictionary is full, merging each round's candidates in mergeOrder.
func (e *encoder) runLayered(stats *Stats) {
	for {
		// A full dictionary ends the encoding before the round is counted:
		// nothing a count could find would be merged.
		budget := math.MaxInt
		if e.cfg.MaxDict > 0 {
			budget = e.cfg.MaxDict - len(e.pairs)
		}
		if budget <= 0 {
			return
		}
		e.countAdjacent()
		e.collectCandidates()
		cands := e.cands
		if len(cands) == 0 {
			return
		}
		if len(cands) > budget {
			// Only pairs at least as frequent as the budget-th most frequent
			// one can make the budget: drop the rest before sorting.
			var hist [256]int // by count; counts of 255 and up share a bucket
			for _, c := range cands {
				hist[min(c.count, 255)]++
			}
			floor, n := int32(255), hist[255]
			for ; n < budget; n += hist[floor] {
				floor--
			}
			cands = slices.DeleteFunc(cands, func(c candidate) bool { return c.count < floor })
		}
		slices.SortFunc(cands, mergeOrder)
		cands = cands[:min(len(cands), budget)]
		for _, c := range cands {
			e.assign(c)
		}
		if !e.replaceAssigned() {
			return // no occurrence actually replaced; avoid spinning
		}
		stats.Rounds++
	}
}

// runGreedy merges the single most frequent pair per iteration (textbook
// BPE). Used for small layers and ablation.
func (e *encoder) runGreedy(stats *Stats) {
	for {
		if e.cfg.MaxDict > 0 && len(e.pairs) >= e.cfg.MaxDict {
			return
		}
		e.countAdjacent()
		e.collectCandidates()
		if len(e.cands) == 0 {
			return
		}
		e.assign(slices.MinFunc(e.cands, mergeOrder))
		if !e.replaceAssigned() {
			return
		}
		stats.Rounds++
	}
}

// replaceAssigned rewrites every sequence in place, substituting the pairs
// assigned a symbol this round left to right without overlap. It reports
// whether any replacement happened.
func (e *encoder) replaceAssigned() bool {
	any := false
	for si := range e.seqs {
		s := e.seqs[si].syms
		if len(s) < 2 {
			continue
		}
		out := s[:0]
		i := 0
		for i < len(s) {
			if i+1 < len(s) {
				if sym := e.table.assigned(pairKey(s[i], s[i+1])); sym != 0 {
					out = append(out, sym)
					i += 2
					any = true
					continue
				}
			}
			out = append(out, s[i])
			i++
		}
		e.seqs[si].syms = out
	}
	return any
}

// buildProgramScaled compacts away dictionary entries no surviving
// sequence references (transitively) and assembles the final Program,
// using scale(row) to fold the dequantization scale into each term.
func (e *encoder) buildProgramScaled(m, bits int, scale func(int) float32, stats *Stats) *Program {
	live := make([]bool, len(e.pairs))
	nlive := 0
	var mark func(s int32)
	mark = func(s int32) {
		if int(s) < e.k {
			return
		}
		j := int(s) - e.k
		if live[j] {
			return
		}
		live[j] = true
		nlive++
		mark(e.pairs[j].A)
		mark(e.pairs[j].B)
	}
	for _, s := range e.seqs {
		for _, sym := range s.syms {
			mark(sym)
		}
	}
	// Renumber live entries, preserving creation (dependency) order.
	remap := make([]int32, len(e.pairs))
	prog := &Program{K: e.k, M: m, Bits: bits, Config: e.cfg}
	if nlive > 0 {
		prog.Pairs, prog.Depth = make([]Pair, 0, nlive), make([]int32, 0, nlive)
	}
	for j, isLive := range live {
		if !isLive {
			remap[j] = -1
			stats.DeadPruned++
			continue
		}
		remap[j] = int32(e.k + len(prog.Pairs))
		p := e.pairs[j]
		prog.Pairs = append(prog.Pairs, Pair{A: remapSym(p.A, e.k, remap), B: remapSym(p.B, e.k, remap)})
		prog.Depth = append(prog.Depth, e.depth[j])
	}
	// Every term comes from one backing array and every symbol list from
	// another, each window's capacity cut at its end. Sequences arrive row
	// by row (appendSequences), so a row's terms are one contiguous run.
	nsyms := 0
	for _, s := range e.seqs {
		nsyms += len(s.syms)
	}
	terms, syms := make([]Term, len(e.seqs)), make([]int32, nsyms)
	prog.Rows = make([]Row, m)
	first := 0 // the current row's first term
	for t, s := range e.seqs {
		out := syms[:len(s.syms):len(s.syms)]
		syms = syms[len(s.syms):]
		for i, sym := range s.syms {
			out[i] = remapSym(sym, e.k, remap)
		}
		terms[t] = Term{Code: s.code, Value: float32(s.code) * scale(s.row), Syms: out}
		if t+1 == len(e.seqs) || e.seqs[t+1].row != s.row {
			prog.Rows[s.row].Terms = terms[first : t+1 : t+1]
			first = t + 1
		}
	}
	return prog
}

func remapSym(s int32, k int, remap []int32) int32 {
	if int(s) < k {
		return s
	}
	return remap[int(s)-k]
}
