package autotune

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func storeWith(entries map[Key]Entry) *Store {
	s := NewStore()
	for k, e := range entries {
		s.Put(k, e)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	want := map[Key]Entry{
		{Shape: "conv-n1-c1-k8", Impl: "ipe", Par: 0}:    {MeanNs: 1234.5, Samples: 100, UpdatedUnixNs: 42},
		{Shape: "conv-n1-c1-k8", Impl: "dense", Par: 0}:  {MeanNs: 2000, Samples: 90, UpdatedUnixNs: 41},
		{Shape: "dense-m10-k84-b2", Impl: "csr", Par: 4}: {MeanNs: 88, Samples: 7},
	}
	path := filepath.Join(t.TempDir(), "tune.json")
	if err := storeWith(want).Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Snapshot(), want) {
		t.Fatalf("round trip mismatch:\ngot  %v\nwant %v", got.Snapshot(), want)
	}
}

func TestStoreMissingFileIsEmpty(t *testing.T) {
	s, err := LoadStore(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatalf("missing file must not error: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("missing file produced %d entries", s.Len())
	}
}

func TestStorePutMergeRule(t *testing.T) {
	k := Key{Shape: "s", Impl: "ipe", Par: 0}
	s := NewStore()
	s.Put(k, Entry{MeanNs: 100, Samples: 50, UpdatedUnixNs: 1})
	// Fewer samples loses, even with a better mean.
	s.Put(k, Entry{MeanNs: 10, Samples: 5, UpdatedUnixNs: 2})
	if e, _ := s.Get(k); e.Samples != 50 {
		t.Fatalf("fewer-samples entry won the merge: %+v", e)
	}
	// More samples wins.
	s.Put(k, Entry{MeanNs: 120, Samples: 200, UpdatedUnixNs: 3})
	if e, _ := s.Get(k); e.Samples != 200 {
		t.Fatalf("more-samples entry lost the merge: %+v", e)
	}
	// Equal samples: lower mean wins.
	s.Put(k, Entry{MeanNs: 90, Samples: 200, UpdatedUnixNs: 4})
	if e, _ := s.Get(k); e.MeanNs != 90 {
		t.Fatalf("lower-mean entry lost the merge: %+v", e)
	}
	// Equal samples and mean: newer wins.
	s.Put(k, Entry{MeanNs: 90, Samples: 200, UpdatedUnixNs: 9})
	if e, _ := s.Get(k); e.UpdatedUnixNs != 9 {
		t.Fatalf("newer entry lost the merge: %+v", e)
	}
	// Invalid entries are ignored outright.
	s.Put(k, Entry{MeanNs: -1, Samples: 1000})
	s.Put(Key{Shape: "", Impl: "ipe"}, Entry{MeanNs: 1, Samples: 1})
	s.Put(Key{Shape: "s", Impl: ""}, Entry{MeanNs: 1, Samples: 1})
	s.Put(Key{Shape: "s", Impl: "x", Par: -1}, Entry{MeanNs: 1, Samples: 1})
	if s.Len() != 1 {
		t.Fatalf("invalid entries were stored: %v", s.Snapshot())
	}
}

// TestStoreSaveMergesConcurrentWriter: two stores sharing one cache file must
// both survive a save race — the second Save folds in what the first wrote.
func TestStoreSaveMergesConcurrentWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.json")
	kA := Key{Shape: "a", Impl: "ipe", Par: 0}
	kB := Key{Shape: "b", Impl: "csr", Par: 0}
	shared := Key{Shape: "s", Impl: "dense", Par: 0}

	s1 := storeWith(map[Key]Entry{
		kA:     {MeanNs: 10, Samples: 10, UpdatedUnixNs: 1},
		shared: {MeanNs: 100, Samples: 500, UpdatedUnixNs: 1},
	})
	s2 := storeWith(map[Key]Entry{
		kB:     {MeanNs: 20, Samples: 20, UpdatedUnixNs: 2},
		shared: {MeanNs: 50, Samples: 30, UpdatedUnixNs: 2}, // fewer samples: must lose
	})
	if err := s1.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := s2.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Get(kA); !ok {
		t.Error("first writer's entry lost in merge")
	}
	if _, ok := got.Get(kB); !ok {
		t.Error("second writer's entry lost in merge")
	}
	if e, _ := got.Get(shared); e.Samples != 500 {
		t.Errorf("merge-on-conflict picked the weaker entry: %+v", e)
	}
}

func TestStoreCorruptFileFallsBackClean(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"garbage.json":   "not json at all {{{",
		"truncated.json": `{"version":2,"entries":[{"shape":"s","impl":"ipe"`,
		"trailing.json":  `{"version":2,"entries":[]}{"version":2}`,
		"empty.json":     "",
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadStore(path); err == nil {
			t.Errorf("%s: LoadStore accepted a corrupt file", name)
		}
		s := LoadStoreOrEmpty(path)
		if s.Len() != 0 {
			t.Errorf("%s: fallback store not empty", name)
		}
		// The fallback store must still be usable and savable over the
		// corrupt file (the recovery path).
		s.Put(Key{Shape: "s", Impl: "ipe"}, Entry{MeanNs: 1, Samples: 1})
		if err := s.Save(path); err != nil {
			t.Errorf("%s: cannot save over corrupt file: %v", name, err)
		}
		if got, err := LoadStore(path); err != nil || got.Len() != 1 {
			t.Errorf("%s: recovery save not readable: %v", name, err)
		}
	}
}

// TestStoreRejectsLegacyVersion: v1 files keyed entries by shape alone; they
// must be invalidated (ErrStoreVersion), never half-migrated.
func TestStoreRejectsLegacyVersion(t *testing.T) {
	v1 := `{"version":1,"entries":[{"shape":"conv-n1-c1-k8","mean_ns":100,"samples":50}]}`
	_, err := DecodeStore(strings.NewReader(v1))
	if !errors.Is(err, ErrStoreVersion) {
		t.Fatalf("v1 file: got %v, want ErrStoreVersion", err)
	}
	if s := LoadStoreOrEmpty(writeTemp(t, v1)); s.Len() != 0 {
		t.Fatalf("legacy entries leaked through the fallback: %v", s.Snapshot())
	}
	future := `{"version":99,"entries":[]}`
	if _, err := DecodeStore(strings.NewReader(future)); !errors.Is(err, ErrStoreVersion) {
		t.Fatalf("future version: got %v, want ErrStoreVersion", err)
	}
}

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStoreDecodeDropsInvalidRowsAndMergesDuplicates: bad rows fall out
// individually; duplicate keys resolve by the merge rule.
func TestStoreDecodeDropsInvalidRowsAndMergesDuplicates(t *testing.T) {
	doc := `{"version":2,"entries":[
		{"shape":"s","impl":"ipe","parallelism":0,"mean_ns":100,"samples":10},
		{"shape":"s","impl":"ipe","parallelism":0,"mean_ns":90,"samples":80},
		{"shape":"","impl":"ipe","parallelism":0,"mean_ns":1,"samples":1},
		{"shape":"s","impl":"","parallelism":0,"mean_ns":1,"samples":1},
		{"shape":"s","impl":"csr","parallelism":-2,"mean_ns":1,"samples":1},
		{"shape":"s","impl":"dense","parallelism":0,"mean_ns":0,"samples":5},
		{"shape":"s","impl":"dense","parallelism":0,"mean_ns":50,"samples":-3}
	]}`
	s, err := DecodeStore(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("got %d entries, want 1 (invalid rows dropped): %v", s.Len(), s.Snapshot())
	}
	e, _ := s.Get(Key{Shape: "s", Impl: "ipe", Par: 0})
	if e.Samples != 80 {
		t.Fatalf("duplicate keys did not merge by the conflict rule: %+v", e)
	}
}

// TestStoreEncodeDeterministic: identical contents produce identical bytes
// regardless of insertion order, so cache files diff cleanly.
func TestStoreEncodeDeterministic(t *testing.T) {
	entries := map[Key]Entry{
		{Shape: "b", Impl: "ipe", Par: 1}:   {MeanNs: 1, Samples: 1},
		{Shape: "a", Impl: "csr", Par: 0}:   {MeanNs: 2, Samples: 2},
		{Shape: "a", Impl: "dense", Par: 0}: {MeanNs: 3, Samples: 3},
	}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		s := NewStore()
		if i == 0 {
			for k, e := range entries {
				s.Put(k, e)
			}
		} else {
			// Reverse-ish second pass: map iteration already randomizes, but
			// make the orders explicitly different.
			keys := []Key{{Shape: "a", Impl: "dense", Par: 0}, {Shape: "a", Impl: "csr", Par: 0}, {Shape: "b", Impl: "ipe", Par: 1}}
			for _, k := range keys {
				s.Put(k, entries[k])
			}
		}
		if err := s.Encode(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("encoding is order-dependent:\n%s\nvs\n%s", bufs[0].Bytes(), bufs[1].Bytes())
	}
}

func TestStoreBest(t *testing.T) {
	s := storeWith(map[Key]Entry{
		{Shape: "s", Impl: "dense", Par: 0}: {MeanNs: 100, Samples: 50},
		{Shape: "s", Impl: "ipe", Par: 0}:   {MeanNs: 40, Samples: 50},
		{Shape: "s", Impl: "csr", Par: 0}:   {MeanNs: 30, Samples: 5}, // under min samples
		{Shape: "s", Impl: "ipe", Par: 4}:   {MeanNs: 10, Samples: 50},
	})
	impl, e, ok := s.Best("s", 0, []string{"dense", "ipe", "csr"}, 30)
	if !ok || impl != "ipe" || e.MeanNs != 40 {
		t.Fatalf("Best = %q %+v %v, want ipe (csr under min samples, p4 is another config)", impl, e, ok)
	}
	// Arms outside the allowed set never seed.
	if _, _, ok := s.Best("s", 0, []string{"winograd"}, 1); ok {
		t.Fatal("Best returned an impl outside the allowed set")
	}
	if _, _, ok := s.Best("missing", 0, []string{"ipe"}, 1); ok {
		t.Fatal("Best invented an entry for an unknown shape")
	}
}
