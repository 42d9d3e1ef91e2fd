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
	if ca != a {
		t.Fatalf("first intern must canonicalize the argument, got %p want %p", ca, a)
	}
	cb := s.Intern(b)
	if cb != a {
		t.Fatalf("duplicate content must intern to the canonical program")
	}
	st := s.Stats()
	if st.Lookups != 2 || st.ProgramHits != 1 || st.UniquePrograms != 1 {
		t.Fatalf("stats = %+v, want 2 lookups / 1 program hit / 1 unique", st)
	}
	if st.SavedBytes <= 0 || st.UniqueBytes <= 0 {
		t.Fatalf("byte accounting not populated: %+v", st)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	// The shared canonical program serves both call sites with one
	// compiled form.
	if ca.Compiled() != cb.Compiled() {
		t.Fatal("interned programs must share the compiled form")
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

func TestDictStoreSharesDictionaryAcrossHeads(t *testing.T) {
	// Two programs built by EncodeShared alias one Pairs/Depth table but
	// have different emit rows — the "two heads over one backbone" shape.
	// A store must dedup the dictionary even when the programs arrive
	// through separate Intern calls after a round-trip that severed the
	// aliasing.
	r := tensor.NewRNG(3)
	w0, w1 := tensor.New(8, 64), tensor.New(6, 64)
	tensor.FillGaussian(w0, r, 1)
	tensor.FillGaussian(w1, r, 1)
	qs := []*quant.Quantized{
		quant.Quantize(w0, 4, quant.PerTensor),
		quant.Quantize(w1, 4, quant.PerTensor),
	}
	progs, _, err := EncodeShared(qs, DefaultConfig())
	if err != nil {
		t.Fatalf("EncodeShared: %v", err)
	}
	if len(progs[0].Pairs) == 0 {
		t.Skip("seed produced an empty dictionary")
	}
	// Round-trip the second program so its Pairs slice is a fresh copy.
	wire, err := progs[1].MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	var copy1 Program
	if err := copy1.UnmarshalBinary(wire); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	copy1.Config = progs[1].Config
	if &copy1.Pairs[0] == &progs[1].Pairs[0] {
		t.Fatal("round-trip should have copied the dictionary")
	}

	s := NewDictStore()
	s.Intern(progs[0])
	got := s.Intern(&copy1)
	if got != &copy1 {
		t.Fatal("different emit rows must keep the program distinct")
	}
	if &got.Pairs[0] != &progs[0].Pairs[0] {
		t.Fatal("identical dictionaries must re-alias to the canonical Pairs slice")
	}
	st := s.Stats()
	if st.DictHits != 1 {
		t.Fatalf("stats = %+v, want 1 dict hit", st)
	}

	// The shared dictionary outlives the program that registered it and
	// leaves with the last program aliasing it.
	s.Release(progs[0])
	if s.Len() != 1 || len(s.dicts) != 1 {
		t.Fatalf("after releasing the first head: %d programs, %d dictionaries, want 1/1", s.Len(), len(s.dicts))
	}
	s.Release(&copy1, progs[1]) // progs[1] was never interned: ignored
	if st := s.Stats(); s.Len() != 0 || len(s.dicts) != 0 || st.UniqueBytes != 0 || st.SavedBytes != 0 {
		t.Fatalf("after releasing both heads: %d programs, %d dictionaries, %+v", s.Len(), len(s.dicts), st)
	}
}

func TestDictStoreDistinguishesConfig(t *testing.T) {
	// Same weights, different encoder config: wire bytes can coincide for
	// tiny layers, but Validate consults Config, so the store must not
	// merge across configs.
	r := tensor.NewRNG(5)
	w := tensor.New(4, 16)
	tensor.FillGaussian(w, r, 1)
	q := quant.Quantize(w, 4, quant.PerTensor)
	p1, _, err := Encode(q, Config{MaxDict: 4, MaxDepth: 2, TileSize: 8})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	p2, _, err := Encode(q, Config{MaxDict: 4, MaxDepth: 2, TileSize: 8, MinPairCount: 3})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	s := NewDictStore()
	a, b := s.Intern(p1), s.Intern(p2)
	if a == b && a.Config != b.Config {
		t.Fatal("programs with different configs merged")
	}
}

func TestDictStoreNilSafe(t *testing.T) {
	var s *DictStore
	p := encodeRandom(t, 9, 4, 16)
	if got := s.Intern(p); got != p {
		t.Fatal("nil store must pass programs through")
	}
	if s.Len() != 0 || s.Stats() != (metrics.SharedDictSnapshot{}) {
		t.Fatal("nil store must report zero state")
	}
	if s.Intern(nil) != nil {
		t.Fatal("nil program must pass through")
	}
	s.Release(p) // no-op
}

func TestDictStoreConcurrentIntern(t *testing.T) {
	// Compile fans out per-node: many goroutines intern concurrently, some
	// with identical content. All duplicates must collapse to one pointer.
	s := NewDictStore()
	const workers = 8
	results := make([]*Program, workers)
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
	if got := s.Stats().UniquePrograms; got != 1 {
		t.Fatalf("UniquePrograms = %d, want 1", got)
	}
}

func TestMemoryBytesGrowsWithCompilation(t *testing.T) {
	p := encodeRandom(t, 11, 16, 64)
	before := p.MemoryBytes()
	if before <= 0 {
		t.Fatalf("MemoryBytes = %d, want > 0", before)
	}
	p.Compiled()
	after := p.MemoryBytes()
	if after <= before {
		t.Fatalf("MemoryBytes after compile = %d, want > %d", after, before)
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
