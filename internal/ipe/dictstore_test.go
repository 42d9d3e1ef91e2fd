package ipe

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// encodeRandom encodes a fresh random matrix from the given seed; equal
// seeds produce byte-identical programs.
func encodeRandom(t *testing.T, seed uint64, m, k int) *Program {
	t.Helper()
	r := tensor.NewRNG(seed)
	w := tensor.New(m, k)
	tensor.FillGaussian(w, r, 1)
	q := quant.Quantize(w, 4, quant.PerTensor)
	p, _, err := Encode(q, DefaultConfig())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return p
}

func TestDictStoreInternsIdenticalPrograms(t *testing.T) {
	s := NewDictStore()
	a := encodeRandom(t, 7, 12, 48)
	b := encodeRandom(t, 7, 12, 48)
	if a == b {
		t.Fatal("test wants two distinct Program values")
	}
	ca := s.Intern(a)
	if ca != a.Compiled() {
		t.Fatal("first intern must make the argument's compiled form canonical")
	}
	if cb := s.Intern(b); cb != ca {
		t.Fatal("duplicate content must intern to the canonical streams")
	}
	if b.compiled != nil {
		t.Fatal("a hit must not lower the duplicate")
	}
	st := s.Stats()
	if st.Lookups != 2 || st.ProgramHits != 1 || st.UniquePrograms != 1 || st.DictHits != 0 {
		t.Fatalf("stats = %+v, want 2 lookups / 1 program hit / 1 unique / 0 dict hits", st)
	}
	if st.UniqueBytes != ca.MemoryBytes() || st.SavedBytes != ca.MemoryBytes() {
		t.Fatalf("byte accounting %+v, want unique = saved = %d (the compiled form)", st, ca.MemoryBytes())
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	s.Release(ca, ca)
	if st := s.Stats(); s.Len() != 0 || st.UniqueBytes != 0 || st.SavedBytes != 0 {
		t.Fatalf("after releasing both references: Len %d, %+v", s.Len(), st)
	}
}

func TestDictStoreKeepsDistinctPrograms(t *testing.T) {
	s := NewDictStore()
	a := s.Intern(encodeRandom(t, 1, 10, 40))
	b := s.Intern(encodeRandom(t, 2, 10, 40))
	if a == b {
		t.Fatal("distinct content must not intern to one program")
	}
	st := s.Stats()
	if st.ProgramHits != 0 || st.UniquePrograms != 2 {
		t.Fatalf("stats = %+v, want 0 hits / 2 unique", st)
	}
}

func TestDictStoreDistinguishesConfig(t *testing.T) {
	// Same streams, different encoder config: Validate consults Config, so
	// the store must not merge across configs even when the wire bytes
	// coincide.
	p1 := encodeRandom(t, 5, 4, 16)
	p2 := &Program{K: p1.K, M: p1.M, Pairs: p1.Pairs, Rows: p1.Rows, Bits: p1.Bits, Config: p1.Config, Depth: p1.Depth}
	p2.Config.MinPairCount = 3
	s := NewDictStore()
	if s.Intern(p1) == s.Intern(p2) {
		t.Fatal("programs with different configs merged")
	}
}

func TestDictStoreNilSafe(t *testing.T) {
	var s *DictStore
	p := encodeRandom(t, 9, 4, 16)
	if got := s.Intern(p); got != p.Compiled() {
		t.Fatal("nil store must return the program's compiled form")
	}
	if s.Len() != 0 || s.Stats() != (metrics.SharedDictSnapshot{}) {
		t.Fatal("nil store must report zero state")
	}
	s.Release(p.Compiled()) // no-op
}

func TestDictStoreConcurrentIntern(t *testing.T) {
	// Compile fans out per-node: many goroutines intern concurrently, some
	// with identical content. All duplicates must collapse to one pointer.
	s := NewDictStore()
	const workers = 8
	results := make([]*Compiled, workers)
	done := make(chan int, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			results[i] = s.Intern(encodeRandom(t, 42, 10, 32))
			done <- i
		}(i)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	for i := 1; i < workers; i++ {
		if results[i] != results[0] {
			t.Fatalf("worker %d got a different canonical program", i)
		}
	}
	if st := s.Stats(); st.UniquePrograms != 1 || st.ProgramHits != workers-1 {
		t.Fatalf("stats = %+v, want 1 unique and %d hits", st, workers-1)
	}
}

func TestMemoryBytesGrowsWithCompilation(t *testing.T) {
	// An unlowered program has no compiled form to count; lowering counts
	// its streams, more of them for a larger program.
	small, large := encodeRandom(t, 11, 16, 64), encodeRandom(t, 11, 64, 256)
	if b := small.compiled.MemoryBytes(); b != 0 {
		t.Fatalf("MemoryBytes before lowering = %d, want 0", b)
	}
	s, l := small.Compiled().MemoryBytes(), large.Compiled().MemoryBytes()
	if s <= 0 || l <= s {
		t.Fatalf("MemoryBytes = %d (16x64), %d (64x256): want 0 < small < large", s, l)
	}
}

func TestProgramKeyStreamsTheWireForm(t *testing.T) {
	// The key hashes the wire form in wireChunk pieces; it must equal the
	// hash of MarshalBinary's whole buffer followed by the config, for
	// programs smaller and several chunks larger than one piece.
	for _, shape := range [][2]int{{4, 16}, {64, 512}} {
		p := encodeRandom(t, 5, shape[0], shape[1])
		wire, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(wire)) != p.WireSize() {
			t.Fatalf("%v: MarshalBinary wrote %d bytes, WireSize %d", shape, len(wire), p.WireSize())
		}
		if shape[0] > 4 && len(wire) < 3*wireChunk {
			t.Fatalf("%v: %d-byte program does not span several chunks", shape, len(wire))
		}
		h := sha256.New()
		h.Write(wire)
		var cfg [24]byte
		le := binary.LittleEndian
		le.PutUint32(cfg[0:], uint32(p.Config.MaxDict))
		le.PutUint32(cfg[4:], uint32(p.Config.MaxDepth))
		le.PutUint32(cfg[8:], uint32(p.Config.TileSize))
		le.PutUint32(cfg[12:], uint32(p.Config.Policy))
		le.PutUint32(cfg[16:], uint32(p.Config.MinPairCount))
		h.Write(cfg[:])
		var want [32]byte
		h.Sum(want[:0])
		got, ok := programKey(p)
		if !ok || got != want {
			t.Fatalf("%v: streamed key %x, want %x", shape, got, want)
		}
	}
}
