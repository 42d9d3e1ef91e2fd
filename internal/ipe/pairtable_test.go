package ipe

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func TestPairTableGrowthMidRoundKeepsCounts(t *testing.T) {
	var tab pairTable
	const n = 5000 // far past the initial 1024 slots: several doublings
	for rep := 1; rep <= 3; rep++ {
		for i := 0; i < n; i++ {
			if i%rep == 0 {
				tab.add(pairKey(int32(i), int32(2*i+1)))
			}
		}
	}
	if len(tab.used) != n {
		t.Fatalf("table holds %d pairs, want %d", len(tab.used), n)
	}
	if len(tab.slots) < 2*n || len(tab.slots)&(len(tab.slots)-1) != 0 {
		t.Fatalf("%d slots for %d pairs: want a power of two at most half full", len(tab.slots), n)
	}
	for i, pos := range tab.used {
		want := int32(1)
		if i%2 == 0 {
			want++
		}
		if i%3 == 0 {
			want++
		}
		s := tab.slots[pos]
		if s.key != pairKey(int32(i), int32(2*i+1)) || s.count != want {
			t.Fatalf("pair %d (insertion order): key %#x count %d, want count %d", i, s.key, s.count, want)
		}
	}
}

func TestPairTableResetLeavesNothingBehind(t *testing.T) {
	var tab pairTable
	for i := 0; i < 3000; i++ {
		tab.add(pairKey(int32(i), int32(i+1)))
	}
	for _, pos := range tab.used {
		tab.slots[pos].sym = 77
	}
	tab.reset()
	if len(tab.used) != 0 {
		t.Fatalf("reset left %d used entries", len(tab.used))
	}
	for i, s := range tab.slots {
		if s != (pairSlot{}) {
			t.Fatalf("reset left slot %d = %+v", i, s)
		}
	}
	for i := 0; i < 3000; i++ {
		if sym := tab.assigned(pairKey(int32(i), int32(i+1))); sym != 0 {
			t.Fatalf("stale symbol %d for pair %d after reset", sym, i)
		}
	}
	tab.add(pairKey(5, 6))
	if s := tab.slots[tab.used[0]]; s.count != 1 || s.sym != 0 {
		t.Fatalf("re-added pair starts at %+v, want count 1 and no symbol", s)
	}
}

// TestPooledEncoderStartsClean runs an encoder over a matrix that assigns
// symbols, returns it to the free list under a hold, and checks that
// whoever gets it next gets the same workspace, starting with no sequences
// and no dictionary, and that its first count carries no symbol over.
func TestPooledEncoderStartsClean(t *testing.T) {
	defer HoldEncoders()()
	r := tensor.NewRNG(8)
	e := newEncoder(DefaultConfig(), 24)
	var st Stats
	e.appendSequences(randQuantMK(r, 16, 24, 4), 0, &st)
	e.run(&st)
	if len(e.pairs) == 0 {
		t.Fatal("setup: the first matrix merged nothing")
	}
	e.release()

	used := e
	e = newEncoder(Config{}, 7)
	defer e.release()
	if e != used {
		t.Fatal("a workspace released under a hold was not reused")
	}
	if len(e.seqs) != 0 || len(e.idx) != 0 || len(e.pairs) != 0 || len(e.depth) != 0 || len(e.tile) != 7 {
		t.Fatalf("recycled encoder starts with %d seqs, %d idx, %d pairs, %d depths, %d tiles",
			len(e.seqs), len(e.idx), len(e.pairs), len(e.depth), len(e.tile))
	}
	for i, tile := range e.tile {
		if tile != 0 {
			t.Fatalf("tile[%d] = %d under TileSize 0", i, tile)
		}
	}
	e.appendSequences(qm([]int32{1, 1, 1, 0, 0, 0, 0}, 1, 7), 0, &st)
	e.countAdjacent()
	for _, pos := range e.table.used {
		if e.table.slots[pos].sym != 0 {
			t.Fatalf("slot %d carries symbol %d into a new count", pos, e.table.slots[pos].sym)
		}
	}
	if len(e.table.used) != 2 {
		t.Fatalf("counted %d pairs in [0 1 2], want 2", len(e.table.used))
	}
}

// TestHoldEncodersKeepsWorkspacesOnlyWhileHeld: workspaces go to the free
// list only while a hold lasts, and the last release of a hold hands them
// back to the pool, so the free list keeps nothing between compiles.
func TestHoldEncodersKeepsWorkspacesOnlyWhileHeld(t *testing.T) {
	freeLen := func() int {
		encoders.mu.Lock()
		defer encoders.mu.Unlock()
		return len(encoders.free)
	}
	newEncoder(Config{}, 4).release()
	if n := freeLen(); n != 0 {
		t.Fatalf("unheld release kept %d workspaces on the free list", n)
	}
	outer, inner := HoldEncoders(), HoldEncoders()
	a, b := newEncoder(Config{}, 4), newEncoder(Config{}, 4)
	a.release()
	b.release()
	if n := freeLen(); n != 2 {
		t.Fatalf("held releases kept %d workspaces, want 2", n)
	}
	inner()
	if n := freeLen(); n != 2 {
		t.Fatalf("releasing one of two holds left %d workspaces, want 2", n)
	}
	outer()
	if n := freeLen(); n != 0 {
		t.Fatalf("releasing the last hold left %d workspaces", n)
	}
}

// TestBudgetCutLeavesCandidatesUnassigned: three pairs tie at count 3 and
// the dictionary has room for one. The smallest key wins; the two cut
// candidates were counted and were candidates, and must not be replaced.
func TestBudgetCutLeavesCandidatesUnassigned(t *testing.T) {
	q := qm([]int32{
		1, 1, 1, 1,
		1, 1, 1, 1,
		1, 1, 1, 1,
	}, 3, 4)
	e := newEncoder(Config{MaxDict: 1}, 4)
	defer e.release()
	var st Stats
	e.appendSequences(q, 0, &st)
	e.run(&st)
	if st.Rounds != 1 || len(e.pairs) != 1 || e.pairs[0] != (Pair{A: 0, B: 1}) {
		t.Fatalf("rounds %d, dictionary %v: want one round merging (0,1)", st.Rounds, e.pairs)
	}
	for _, s := range e.seqs {
		if !reflect.DeepEqual(s.syms, []int32{4, 2, 3}) {
			t.Fatalf("row %d rewritten to %v, want [4 2 3]: (2,3) was cut by the budget", s.row, s.syms)
		}
	}
}

func TestEncodeShortSequences(t *testing.T) {
	// Sequences of length 1 and an all-zero row: nothing is adjacent, the
	// pair table is never populated, and both policies must cope.
	q := qm([]int32{
		1, 0, 0,
		0, 0, 0,
		0, 2, 3,
	}, 3, 3)
	for _, policy := range []Policy{PolicyLayered, PolicyGreedy} {
		prog, st, err := Encode(q, Config{Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if prog.DictSize() != 0 || st.InputSymbols != 3 || st.OutputSymbols != 3 || len(prog.Rows[1].Terms) != 0 {
			t.Errorf("%v: dict %d, stats %+v, zero row has %d terms", policy, prog.DictSize(), st, len(prog.Rows[1].Terms))
		}
		if err := prog.VerifyAgainst(q); err != nil {
			t.Errorf("%v: %v", policy, err)
		}
	}
}

func randQuantMK(r *tensor.RNG, m, k, bits int) *quant.Quantized {
	w := tensor.New(m, k)
	tensor.FillGaussian(w, r, 1)
	quant.PruneMagnitude(w, 0.2)
	return quant.Quantize(w, bits, quant.PerChannel)
}

// referenceEncode is the encoder as it was before the pair table: a fresh
// Go map of counts and a fresh map of assigned symbols per round, map-and-
// sort row grouping, sort.Slice, and the dictionary-full check after the
// count. It is the oracle for TestEncodeMatchesMapReference.
func referenceEncode(q *quant.Quantized, cfg Config) (*Program, Stats) {
	m := q.Shape[0]
	k := len(q.Codes) / m
	e := newEncoder(cfg, k)
	defer e.release()
	var st Stats
	for row := 0; row < m; row++ {
		groups := make(map[int32][]int32)
		for i := 0; i < k; i++ {
			if c := q.Codes[row*k+i]; c != 0 {
				groups[c] = append(groups[c], int32(i))
			}
		}
		codes := make([]int32, 0, len(groups))
		for c := range groups {
			codes = append(codes, c)
		}
		sort.Slice(codes, func(a, b int) bool { return codes[a] < codes[b] })
		for _, c := range codes {
			st.InputSymbols += len(groups[c])
			e.seqs = append(e.seqs, sequence{row: row, code: c, syms: groups[c]})
		}
	}
	type cand struct {
		key   uint64
		count int
	}
	for cfg.Policy != PolicyGreedy || cfg.MaxDict == 0 || len(e.pairs) < cfg.MaxDict {
		counts := make(map[uint64]int)
		for _, s := range e.seqs {
			for i := 0; i+1 < len(s.syms); i++ {
				counts[pairKey(s.syms[i], s.syms[i+1])]++
			}
		}
		var cands []cand
		for key, c := range counts {
			if a, b := keyPair(key); c >= cfg.minCount() && e.legalPair(a, b) {
				cands = append(cands, cand{key, c})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].count != cands[j].count {
				return cands[i].count > cands[j].count
			}
			return cands[i].key < cands[j].key
		})
		if cfg.Policy == PolicyGreedy && len(cands) > 1 {
			cands = cands[:1]
		} else if cfg.MaxDict > 0 && len(cands) > max(cfg.MaxDict-len(e.pairs), 0) {
			cands = cands[:max(cfg.MaxDict-len(e.pairs), 0)]
		}
		assigned := make(map[uint64]int32, len(cands))
		for _, c := range cands {
			a, b := keyPair(c.key)
			assigned[c.key] = e.allocSymbol(a, b)
		}
		replaced := false
		for si, s := range e.seqs {
			out := s.syms[:0]
			for i := 0; i < len(s.syms); i++ {
				if i+1 < len(s.syms) {
					if sym, ok := assigned[pairKey(s.syms[i], s.syms[i+1])]; ok {
						out = append(out, sym)
						i++
						replaced = true
						continue
					}
				}
				out = append(out, s.syms[i])
			}
			e.seqs[si].syms = out
		}
		if !replaced {
			break
		}
		st.Rounds++
	}
	st.Merges = len(e.pairs)
	for _, s := range e.seqs {
		st.OutputSymbols += len(s.syms)
	}
	return e.buildProgramScaled(m, q.Bits, q.RowScale, &st), st
}

// TestEncodeMatchesMapReference compares Encode with the map-based oracle,
// byte for byte and stat for stat, over random matrices and the corners of
// the configuration space: both policies, budgets that cut the candidate
// list (through and past the count prefilter), depth and tile limits.
func TestEncodeMatchesMapReference(t *testing.T) {
	check := func(q *quant.Quantized, cfg Config) {
		t.Helper()
		got, gotStats, err := Encode(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats := referenceEncode(q, cfg)
		gb, _ := got.MarshalBinary()
		wb, _ := want.MarshalBinary()
		if !bytes.Equal(gb, wb) || gotStats != wantStats {
			t.Errorf("%+v on %v: program or stats differ from the map reference\n got %+v\nwant %+v",
				cfg, q.Shape, gotStats, wantStats)
		}
	}
	// Counts past the prefilter's last histogram bucket: 300 identical rows
	// put every pair at 300, 200 more rows lift a few to 500, and the
	// budget cuts inside each of the two plateaus in turn.
	hot := codesMatrix(500, 12, func(r, c int) int32 {
		if r < 300 || c < 4 {
			return int32(1 + c%2)
		}
		return 0
	})
	for _, maxDict := range []int{1, 3, 6} {
		check(hot, Config{MaxDict: maxDict})
	}

	r := tensor.NewRNG(21)
	n := 0
	for _, policy := range []Policy{PolicyLayered, PolicyGreedy} {
		for _, maxDict := range []int{0, 1, 7, 40} {
			for _, tile := range []int{0, 8} {
				for _, bits := range []int{2, 4, 8} {
					cfg := Config{Policy: policy, MaxDict: maxDict, TileSize: tile, MaxDepth: n % 4, MinPairCount: n % 3 * 2}
					if policy == PolicyGreedy && maxDict == 0 {
						cfg.MaxDict = 25 // unbounded greedy is quadratic
					}
					q := randQuantMK(r, 3+n%9, 5+n%29, bits)
					n++
					check(q, cfg)
				}
			}
		}
	}
}

// TestConcurrentEncodesShareNoWorkspace encodes distinct matrices from
// several goroutines at once, repeatedly, so workspaces cycle through the
// pool; every result must equal the one computed alone. Run under -race.
func TestConcurrentEncodesShareNoWorkspace(t *testing.T) {
	r := tensor.NewRNG(33)
	const workers = 4
	qs := make([]*quant.Quantized, workers)
	want := make([][]byte, workers)
	for i := range qs {
		qs[i] = randQuantMK(r, 8+4*i, 40+16*i, 4)
		prog, _, err := Encode(qs[i], DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = prog.MarshalBinary()
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				prog, _, err := Encode(qs[i], DefaultConfig())
				if err == nil {
					if got, _ := prog.MarshalBinary(); !bytes.Equal(got, want[i]) {
						err = fmt.Errorf("matrix %d, repetition %d: program differs from the one encoded alone", i, rep)
					}
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
