package ipe

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// DictStore is a content-addressed interner for encoded programs — the
// shared dictionary store of the multi-model serving path. INSPIRE's pair
// dictionaries are per-layer lookup structures, so identical programs recur
// across layers, across models, and across successive versions of the same
// model (a hot swap back to a served version re-encodes every layer to the
// exact same program). Interning collapses those duplicates to one
// canonical *Compiled, the lowered streams a served op keeps, shrinking the
// resident bytes per served model.
//
// Sharing has one level: byte-identical programs (same K/M/Bits/Config,
// same pair dictionary, same emit rows including values) intern to one
// canonical Compiled, lowered from the first of them; callers must treat it
// as immutable. The store keeps no Program, only compiled streams.
//
// Sharing is purely structural — the canonical streams are the lowering of
// every duplicate they replace, so results stay bit-identical to per-model
// encoding (enforced by conformance's shared-dict variant).
//
// Entries are reference counted: every Intern acquires one reference to
// the canonical streams it returns, and Release gives it back. Streams
// whose count reaches zero leave the store, so a retired model version
// hands back what it interned while streams a live plan references stay
// put. All methods are safe for concurrent use; a nil *DictStore is a valid
// no-op interner.
type DictStore struct {
	mu       sync.Mutex
	programs map[[32]byte]*Compiled
	entries  map[*Compiled]*programEntry // canonical streams -> their count

	// Stats fields are atomics so hot-path readers (metrics gauges) never
	// take the map lock.
	lookups        atomic.Int64
	programHits    atomic.Int64
	uniquePrograms atomic.Int64
	uniqueBytes    atomic.Int64
	savedBytes     atomic.Int64
}

// programEntry is one canonical program's reference count and what its
// registration charged to the gauges, so the last release takes off
// exactly what the first intern put on.
type programEntry struct {
	key   [32]byte
	refs  int
	bytes int64 // UniqueBytes at registration; also SavedBytes per extra reference
}

// NewDictStore returns an empty shared dictionary store.
func NewDictStore() *DictStore {
	return &DictStore{
		programs: make(map[[32]byte]*Compiled),
		entries:  make(map[*Compiled]*programEntry),
	}
}

// Stats returns a consistent-enough snapshot of the store's counters. Its
// DictHits is always 0: the store shares whole programs only.
func (s *DictStore) Stats() metrics.SharedDictSnapshot {
	if s == nil {
		return metrics.SharedDictSnapshot{}
	}
	return metrics.SharedDictSnapshot{
		Lookups:        s.lookups.Load(),
		ProgramHits:    s.programHits.Load(),
		UniquePrograms: s.uniquePrograms.Load(),
		UniqueBytes:    s.uniqueBytes.Load(),
		SavedBytes:     s.savedBytes.Load(),
	}
}

// Len returns the number of canonical programs resident in the store.
func (s *DictStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.programs)
}

// Intern returns the canonical compiled form of p and acquires one
// reference to it. The first program of some content is lowered
// (p.Compiled()) and its streams become canonical; a later program of the
// same content gets those streams and is not lowered. Either way the
// caller keeps the returned streams and drops p. A nil store interns
// nothing and returns p.Compiled().
func (s *DictStore) Intern(p *Program) *Compiled {
	if s == nil {
		return p.Compiled()
	}
	s.lookups.Add(1)
	key, ok := programKey(p)
	if !ok {
		// Unhashable programs (outside the wire format's ranges) stay
		// private to their plan; correctness is unaffected.
		return p.Compiled()
	}
	if c := s.acquire(key, nil); c != nil {
		return c
	}
	// Lowered outside the lock: if a concurrent intern of the same content
	// registers first, its streams win and these are dropped.
	return s.acquire(key, p.Compiled())
}

// acquire takes one reference to the canonical streams registered under
// key and returns them. With none registered it registers c, or returns
// nil when c is nil.
func (s *DictStore) acquire(key [32]byte, c *Compiled) *Compiled {
	s.mu.Lock()
	if canon, hit := s.programs[key]; hit {
		e := s.entries[canon]
		e.refs++
		s.mu.Unlock()
		s.programHits.Add(1)
		s.savedBytes.Add(e.bytes)
		s.publish()
		return canon
	}
	if c == nil {
		s.mu.Unlock()
		return nil
	}
	e := &programEntry{key: key, refs: 1, bytes: c.MemoryBytes()}
	s.programs[key] = c
	s.entries[c] = e
	s.mu.Unlock()
	s.uniquePrograms.Add(1)
	s.uniqueBytes.Add(e.bytes)
	s.publish()
	return c
}

// Release gives back one reference per compiled form, each a pointer an
// Intern call returned. Streams whose count reaches zero leave the store;
// the pointer itself stays valid for whoever still holds it, and a later
// identical Intern registers fresh canonical streams. Streams the store
// never counted (a nil store, unhashable programs) are ignored.
func (s *DictStore) Release(cs ...*Compiled) {
	if s == nil || len(cs) == 0 {
		return
	}
	s.mu.Lock()
	for _, c := range cs {
		e, ok := s.entries[c]
		if !ok {
			continue
		}
		if e.refs--; e.refs > 0 {
			s.savedBytes.Add(-e.bytes)
			continue
		}
		delete(s.entries, c)
		delete(s.programs, e.key)
		s.uniquePrograms.Add(-1)
		s.uniqueBytes.Add(-e.bytes)
	}
	s.mu.Unlock()
	s.publish()
}

// publish pushes the store's counters to the process recorder (nil-safe).
func (s *DictStore) publish() {
	metrics.Get().SetSharedDict(s.Stats())
}

// programKey hashes the full program content — wire form (K, M, Bits, pair
// dictionary, emit rows with codes and values) plus the encoder Config,
// which the wire format drops but Validate consults. The wire form streams
// into the hash through MarshalBinary's encoder in bounded chunks, so
// interning never materializes it.
func programKey(p *Program) ([32]byte, bool) {
	h := sha256.New()
	w := wireEncoder{buf: make([]byte, 0, wireChunk+wireSlack), sink: h}
	if err := w.encode(p); err != nil {
		return [32]byte{}, false
	}
	var cfg [24]byte
	le := binary.LittleEndian
	le.PutUint32(cfg[0:], uint32(p.Config.MaxDict))
	le.PutUint32(cfg[4:], uint32(p.Config.MaxDepth))
	le.PutUint32(cfg[8:], uint32(p.Config.TileSize))
	le.PutUint32(cfg[12:], uint32(p.Config.Policy))
	le.PutUint32(cfg[16:], uint32(p.Config.MinPairCount))
	h.Write(cfg[:])
	var key [32]byte
	h.Sum(key[:0])
	return key, true
}

// MemoryBytes estimates the resident heap bytes of the compiled form: its
// stream words plus a flat 96 B for the struct and its slice headers. The
// point is comparability across shared and unshared plans, not
// allocator-exact counts. Interned streams are counted at every owner, so
// pair it with pointer-identity dedup (see runtime.Plan.ResidentBytes) when
// summing across plans.
func (c *Compiled) MemoryBytes() int64 {
	if c == nil {
		return 0
	}
	words := len(c.pairA) + len(c.pairB) + len(c.pairDst) +
		len(c.syms) + len(c.termOff) + len(c.values) +
		len(c.rowOff) + len(c.gatherRows)
	return int64(words)*4 + 96
}
