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
// dictionaries are per-layer lookup structures, so identical entries recur
// across layers, across models, and across successive versions of the same
// model (a weight hot-swap usually re-encodes most layers to the exact same
// program). Interning collapses those duplicates to one canonical *Program,
// which also shares the lazily memoized Compiled form (emit passes and
// partial-sum slot plan), shrinking the resident bytes per served model.
//
// Two levels of sharing:
//
//   - program level: byte-identical programs (same K/M/Bits/Config, same
//     pair dictionary, same emit rows including values) intern to one
//     canonical Program; callers must treat interned programs as immutable;
//   - dictionary level: programs whose pair dictionaries match but whose
//     emit rows differ (e.g. two dense heads over one shared backbone
//     encoding) alias one Pairs/Depth slice pair.
//
// Sharing is purely structural — a canonical program executes the exact
// instruction stream of every duplicate it replaced, so results stay
// bit-identical to per-model encoding (enforced by conformance's
// shared-dict variant).
//
// Entries are reference counted: every Intern that returns a canonical
// program acquires one reference, and Release gives it back. A program
// whose count reaches zero leaves the store, and a dictionary leaves with
// the last canonical program aliasing it, so a retired model version hands
// back what it interned while programs a live plan references stay put.
// All methods are safe for concurrent use; a nil *DictStore is a valid
// no-op interner.
type DictStore struct {
	mu       sync.Mutex
	programs map[[32]byte]*Program
	entries  map[*Program]*programEntry // canonical program -> its count
	dicts    map[[32]byte]*dictEntry

	// Stats fields are atomics so hot-path readers (metrics gauges) never
	// take the map lock.
	lookups        atomic.Int64
	programHits    atomic.Int64
	dictHits       atomic.Int64
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
	// dict is the dictionary the program aliases (nil for an empty one);
	// dictSaved is the SavedBytes its registration charged for sharing it.
	dict      *dictEntry
	dictKey   [32]byte
	dictSaved int64
}

type dictEntry struct {
	pairs []Pair
	depth []int32
	refs  int // canonical programs aliasing this dictionary
}

// NewDictStore returns an empty shared dictionary store.
func NewDictStore() *DictStore {
	return &DictStore{
		programs: make(map[[32]byte]*Program),
		entries:  make(map[*Program]*programEntry),
		dicts:    make(map[[32]byte]*dictEntry),
	}
}

// Stats returns a consistent-enough snapshot of the store's counters.
func (s *DictStore) Stats() metrics.SharedDictSnapshot {
	if s == nil {
		return metrics.SharedDictSnapshot{}
	}
	return metrics.SharedDictSnapshot{
		Lookups:        s.lookups.Load(),
		ProgramHits:    s.programHits.Load(),
		DictHits:       s.dictHits.Load(),
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

// Intern returns the canonical program for p, registering p as canonical if
// its content was not seen before, and acquires one reference to it. On a
// program-level hit the caller must drop p and use the returned program
// (whose Compiled form is shared); on a dictionary-level hit p itself is
// returned with its Pairs/Depth slices re-aliased to the canonical
// dictionary. Interned programs are shared across plans and must not be
// mutated. A nil store interns nothing.
func (s *DictStore) Intern(p *Program) *Program {
	if s == nil || p == nil {
		return p
	}
	s.lookups.Add(1)
	key, ok := programKey(p)
	if !ok {
		// Unhashable programs (outside the wire format's ranges) stay
		// private to their plan; correctness is unaffected.
		return p
	}

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
	e := &programEntry{key: key, refs: 1, bytes: p.MemoryBytes()}
	if len(p.Pairs) > 0 {
		e.dictKey = dictKey(p)
		if d, hit := s.dicts[e.dictKey]; hit {
			e.dictSaved = int64(len(p.Pairs))*pairBytes + int64(len(p.Depth))*4
			s.dictHits.Add(1)
			s.savedBytes.Add(e.dictSaved)
			p.Pairs = d.pairs
			p.Depth = d.depth
			e.dict = d
		} else {
			e.dict = &dictEntry{pairs: p.Pairs, depth: p.Depth}
			s.dicts[e.dictKey] = e.dict
		}
		e.dict.refs++
	}
	s.programs[key] = p
	s.entries[p] = e
	s.mu.Unlock()
	s.uniquePrograms.Add(1)
	s.uniqueBytes.Add(e.bytes)
	s.publish()
	return p
}

// Release gives back one reference per program, each a pointer an Intern
// call returned. A program whose count reaches zero leaves the store,
// taking its dictionary along when no other canonical program aliases it;
// the pointer itself stays valid for whoever still holds it, and a later
// identical Intern registers a fresh canonical program. Programs the store
// never counted (a nil store, unhashable programs) are ignored.
func (s *DictStore) Release(progs ...*Program) {
	if s == nil || len(progs) == 0 {
		return
	}
	s.mu.Lock()
	for _, p := range progs {
		e, ok := s.entries[p]
		if !ok {
			continue
		}
		if e.refs--; e.refs > 0 {
			s.savedBytes.Add(-e.bytes)
			continue
		}
		delete(s.entries, p)
		delete(s.programs, e.key)
		s.uniquePrograms.Add(-1)
		s.uniqueBytes.Add(-e.bytes)
		if d := e.dict; d != nil {
			s.savedBytes.Add(-e.dictSaved)
			if d.refs--; d.refs == 0 {
				delete(s.dicts, e.dictKey)
			}
		}
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

// dictKey hashes only the pair dictionary and its input width, the unit of
// dictionary-level sharing.
func dictKey(p *Program) [32]byte {
	h := sha256.New()
	var buf [8]byte
	le := binary.LittleEndian
	le.PutUint32(buf[0:], uint32(p.K))
	le.PutUint32(buf[4:], uint32(len(p.Pairs)))
	h.Write(buf[:])
	for _, pr := range p.Pairs {
		le.PutUint32(buf[0:], uint32(pr.A))
		le.PutUint32(buf[4:], uint32(pr.B))
		h.Write(buf[:])
	}
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// Per-element heap cost estimates used by the residency accounting. Slice
// headers and allocator rounding are approximated by flat per-object
// constants; the point is comparability across shared and unshared plans,
// not allocator-exact byte counts.
const (
	pairBytes   = 8  // Pair{A,B int32}
	sliceHeader = 24 // ptr+len+cap
	termFixed   = 4 + 4 + sliceHeader
)

// MemoryBytes estimates the resident heap bytes of the program structure,
// including its compiled form when already lowered. Shared slices are
// counted at every owner — pair it with pointer-identity dedup (see
// runtime.Plan.ResidentBytes) when summing across interned programs.
func (p *Program) MemoryBytes() int64 {
	if p == nil {
		return 0
	}
	size := int64(128) // struct header + fixed fields
	size += int64(len(p.Pairs)) * pairBytes
	size += int64(len(p.Depth)) * 4
	for _, row := range p.Rows {
		size += sliceHeader
		for _, t := range row.Terms {
			size += termFixed + int64(len(t.Syms))*4
		}
	}
	compileMu.RLock()
	c := p.compiled
	compileMu.RUnlock()
	size += c.MemoryBytes()
	return size
}

// MemoryBytes estimates the resident heap bytes of the compiled form.
func (c *Compiled) MemoryBytes() int64 {
	if c == nil {
		return 0
	}
	words := len(c.pairA) + len(c.pairB) + len(c.pairDst) +
		len(c.syms) + len(c.termOff) + len(c.values) +
		len(c.rowOff) + len(c.gatherRows)
	return int64(words)*4 + 96
}
