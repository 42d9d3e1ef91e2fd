package ipe

import (
	"math/bits"
	"slices"
	"sync"
)

// pairSlot is one pair of the current round: its canonical key, how often
// it is adjacent, and the dictionary symbol assigned to it once the round's
// candidates are chosen. count 0 marks an empty slot; sym 0 means
// unassigned, which no merged symbol can be (they are numbered from K ≥ 1).
type pairSlot struct {
	key   uint64
	count int32
	sym   int32
}

// pairTable is the encoder's one hash table: linear probing over a
// power-of-two slot array kept at most half full. used lists the occupied
// slots in insertion order; it is how a round enumerates its pairs and how
// reset empties the table without sweeping the slots never written.
type pairTable struct {
	slots []pairSlot
	shift uint // 64 - log2(len(slots))
	used  []uint32
}

// find returns the position of key's slot, or of the empty slot key would
// be inserted at. The table must hold at least one pair.
func (t *pairTable) find(key uint64) uint32 {
	mask := uint64(len(t.slots) - 1)
	// Fibonacci hashing: the multiply carries both halves of the key into
	// the top bits the shift keeps.
	for i := key * 0x9E3779B97F4A7C15 >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.count == 0 || s.key == key {
			return uint32(i)
		}
	}
}

// add counts one more occurrence of key.
func (t *pairTable) add(key uint64) {
	if 2*len(t.used) >= len(t.slots) {
		t.grow()
	}
	i := t.find(key)
	s := &t.slots[i]
	if s.count == 0 {
		s.key = key
		t.used = append(t.used, i)
	}
	s.count++
}

// assigned returns the symbol assigned to key this round, 0 if none (an
// empty slot's sym is 0 too).
func (t *pairTable) assigned(key uint64) int32 { return t.slots[t.find(key)].sym }

// grow doubles the slot array and moves every pair over with its count and
// symbol, keeping the insertion order of used.
func (t *pairTable) grow() {
	old := t.slots
	n := max(2*len(old), 1<<10)
	t.slots = make([]pairSlot, n)
	t.shift = uint(64 - bits.Len(uint(n-1)))
	for j, pos := range t.used {
		i := t.find(old[pos].key)
		t.slots[i] = old[pos]
		t.used[j] = i
	}
}

// reset empties the table, clearing only the slots in use.
func (t *pairTable) reset() {
	for _, pos := range t.used {
		t.slots[pos] = pairSlot{}
	}
	t.used = t.used[:0]
}

// Encoder workspaces (pair table, candidate list, sequences and their
// index storage) are recycled across Encode calls through idleEncoders, a
// sync.Pool. A collection empties a pool, and a model compile allocates
// enough to collect several times, so while a compile holds the workspaces
// (HoldEncoders) a released one goes to a free list that no collection
// empties instead: the compile allocates its workspaces at most once per
// compile worker, not once per layer and merge round. When the last hold ends the
// list goes back to the pool, so between compiles the collector may take
// the workspaces, as it may take any pooled memory. One Encode call owns an
// encoder from newEncoder to release.
var (
	idleEncoders = sync.Pool{New: func() any { return new(encoder) }}
	encoders     struct {
		mu    sync.Mutex
		holds int
		free  []*encoder
	}
)

// HoldEncoders keeps the encoder workspaces that Encode calls finish with
// on the free list for later Encode calls until release is called; the
// last release hands them back to the pool. runtime.Compile holds them for
// its duration.
func HoldEncoders() (release func()) {
	encoders.mu.Lock()
	encoders.holds++
	encoders.mu.Unlock()
	return func() {
		encoders.mu.Lock()
		defer encoders.mu.Unlock()
		if encoders.holds--; encoders.holds == 0 {
			for _, e := range encoders.free {
				idleEncoders.Put(e)
			}
			clear(encoders.free)
			encoders.free = encoders.free[:0]
		}
	}
}

// newEncoder takes a workspace from the free list, or else from the pool,
// and resets it for a matrix of reduction length k: no sequences, an empty
// dictionary, and the raw symbols' tiles (merged symbols append theirs as
// they are created). The pair table is reset by every count.
func newEncoder(cfg Config, k int) *encoder {
	var e *encoder
	encoders.mu.Lock()
	if n := len(encoders.free); n > 0 {
		e = encoders.free[n-1]
		encoders.free = encoders.free[:n-1]
	}
	encoders.mu.Unlock()
	if e == nil {
		e = idleEncoders.Get().(*encoder)
	}
	e.cfg, e.k = cfg, k
	e.seqs, e.idx, e.pairs, e.depth = e.seqs[:0], e.idx[:0], e.pairs[:0], e.depth[:0]
	e.tile = slices.Grow(e.tile[:0], k)[:k]
	for i := range e.tile {
		e.tile[i] = 0
		if cfg.TileSize > 0 {
			e.tile[i] = int32(i / cfg.TileSize)
		}
	}
	return e
}

// release hands the workspace to the free list while a hold lasts and to
// the pool otherwise; buildProgramScaled copies, so no returned program
// aliases it.
func (e *encoder) release() {
	encoders.mu.Lock()
	held := encoders.holds > 0
	if held {
		encoders.free = append(encoders.free, e)
	}
	encoders.mu.Unlock()
	if !held {
		idleEncoders.Put(e)
	}
}
