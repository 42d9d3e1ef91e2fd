package ipe_test

import (
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/ipe"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// backbone builds conv→flatten→dense with seed-derived weights, so equal
// seeds encode byte-identical programs.
func backbone(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g := graph.New("in", 1, 2, 8, 8)
	spec := tensor.ConvSpec{InC: 2, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2}
	r := tensor.NewRNG(seed)
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.5)
	b := tensor.New(8)
	tensor.FillGaussian(b, r, 0.1)
	c := g.Conv(g.In, "c1", spec, w, b)
	f := g.Flatten(c, "flat")
	dw := tensor.New(6, 8*8*8)
	tensor.FillGaussian(dw, r, 0.3)
	g.SetOutput(g.Dense(f, "fc", dw, nil))
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	return g
}

// twinDense builds two dense layers with identical weights, so one plan
// interns the same program twice.
func twinDense(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("in", 1, 16)
	w := tensor.New(16, 16)
	tensor.FillGaussian(w, tensor.NewRNG(3), 1)
	h := g.Dense(g.In, "fc1", w, nil)
	g.SetOutput(g.Dense(h, "fc2", w.Clone(), nil))
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	return g
}

func compileIPE(t *testing.T, g *graph.Graph, store *ipe.DictStore) *runtime.Plan {
	t.Helper()
	p, err := runtime.Compile(g, runtime.Options{Force: runtime.ImplIPE, DictStore: store})
	if err != nil {
		t.Error(err)
		return nil
	}
	return p
}

func samePrograms(t *testing.T, what string, got, want []*ipe.Compiled) {
	t.Helper()
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("%s: %d programs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: program %d is not the canonical instance", what, i)
		}
	}
}

// TestRetiredPlanReleasesOnlyWhatItAcquired: a program a live plan
// references is never dropped from the store, whatever retires around it,
// and the last plan's retirement empties the store. Retirement, serving and
// an identical compile run concurrently, so the race detector sees the
// store's reference counting under the registry's real interleaving.
func TestRetiredPlanReleasesOnlyWhatItAcquired(t *testing.T) {
	store := ipe.NewDictStore()
	var a, b *runtime.Plan
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a = compileIPE(t, backbone(t, 7), store) }()
	go func() { defer wg.Done(); b = compileIPE(t, backbone(t, 7), store) }()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	samePrograms(t, "two plans of one backbone", b.IPEPrograms(), a.IPEPrograms())
	live := b.IPEPrograms()
	wantLen, wantBytes := store.Len(), store.Stats().UniqueBytes
	if wantLen == 0 || wantBytes == 0 {
		t.Fatalf("store holds %d programs / %d bytes after two compiles", wantLen, wantBytes)
	}

	// Retire a while b serves and a third identical plan compiles.
	in := tensor.New(1, 2, 8, 8)
	tensor.FillGaussian(in, tensor.NewRNG(1), 1)
	var c *runtime.Plan
	wg.Add(3)
	go func() { defer wg.Done(); a.ReleasePool() }()
	go func() { defer wg.Done(); c = compileIPE(t, backbone(t, 7), store) }()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := b.Run(in); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	samePrograms(t, "compile beside a retirement", c.IPEPrograms(), live)
	if got := store.Len(); got != wantLen {
		t.Fatalf("Len = %d after retiring one of two sharing plans, want %d", got, wantLen)
	}
	if got := store.Stats().UniqueBytes; got != wantBytes {
		t.Fatalf("UniqueBytes = %d after retiring one of two sharing plans, want %d", got, wantBytes)
	}

	// A second ReleasePool releases nothing: c still holds what a and b
	// shared.
	b.ReleasePool()
	b.ReleasePool()
	a.ReleasePool()
	if got := store.Len(); got != wantLen {
		t.Fatalf("Len = %d with one sharing plan still live, want %d", got, wantLen)
	}
	samePrograms(t, "live plan after repeated retirements", c.IPEPrograms(), live)
	c.ReleasePool()
	if st := store.Stats(); store.Len() != 0 || st.UniquePrograms != 0 || st.UniqueBytes != 0 || st.SavedBytes != 0 {
		t.Fatalf("store after retiring every plan: Len %d, %+v", store.Len(), st)
	}
}

// TestLayerInternedTwiceIsReleasedTwice: two layers of one plan encoding to
// one program take two references, and retiring the plan gives back both.
func TestLayerInternedTwiceIsReleasedTwice(t *testing.T) {
	store := ipe.NewDictStore()
	p1 := compileIPE(t, twinDense(t), store)
	p2 := compileIPE(t, twinDense(t), store)
	if t.Failed() {
		t.FailNow()
	}
	progs := p1.IPEPrograms()
	if len(progs) != 2 || progs[0] != progs[1] {
		t.Fatalf("twin layers did not intern to one program: %v", progs)
	}
	if store.Len() != 1 {
		t.Fatalf("Len = %d, want 1", store.Len())
	}
	p1.ReleasePool()
	if store.Len() != 1 {
		t.Fatalf("Len = %d after retiring one of two plans, want 1", store.Len())
	}
	p2.ReleasePool()
	if st := store.Stats(); store.Len() != 0 || st.UniqueBytes != 0 || st.SavedBytes != 0 {
		t.Fatalf("store after retiring both plans: Len %d, %+v", store.Len(), st)
	}
}
