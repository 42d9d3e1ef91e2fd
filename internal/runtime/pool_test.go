package runtime

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/ipe"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// denseGraph builds conv→flatten→dense from a seed, so equal seeds produce
// identical weights (the backbone-sharing scenarios below rely on it).
func denseGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g := graph.New("in", 1, 1, 8, 8)
	spec := tensor.ConvSpec{InC: 1, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	r := tensor.NewRNG(seed)
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.5)
	b := tensor.New(4)
	tensor.FillGaussian(b, r, 0.1)
	c := g.Conv(g.In, "c1", spec, w, b)
	f := g.Flatten(c, "flat")
	dw := tensor.New(5, 4*8*8)
	tensor.FillGaussian(dw, r, 0.3)
	d := g.Dense(f, "fc", dw, nil)
	g.SetOutput(d)
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExecutorFreeListReusesAndBounds(t *testing.T) {
	p, err := Compile(convGraph(t, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.SetPoolCap(2)
	e1, e2, e3 := p.AcquireExecutor(), p.AcquireExecutor(), p.AcquireExecutor()
	p.ReleaseExecutor(e1)
	p.ReleaseExecutor(e2)
	p.ReleaseExecutor(e3) // beyond cap: discarded
	if got := p.PooledExecutors(); got != 2 {
		t.Fatalf("PooledExecutors = %d, want 2 (cap)", got)
	}
	// LIFO reuse: the most recently released executor comes back first.
	if got := p.AcquireExecutor(); got != e2 {
		t.Fatalf("expected warm executor e2 back, got %p", got)
	}
	if got := p.AcquireExecutor(); got != e1 {
		t.Fatalf("expected warm executor e1 back, got %p", got)
	}
}

func TestReleasePoolDiscardsWarmExecutorsAndBalancesResidency(t *testing.T) {
	rec := metrics.Enable()
	defer metrics.Disable()
	p, err := Compile(convGraph(t, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 1, 8, 8)
	e1, e2 := p.AcquireExecutor(), p.AcquireExecutor()
	if _, err := e1.Run(in); err != nil {
		t.Fatal(err)
	}
	p.ReleaseExecutor(e1)
	p.ReleaseExecutor(e2)
	if rec.Exec.ArenaBytesResident.Load() != 2*p.ArenaBytes {
		t.Fatalf("resident = %d, want %d", rec.Exec.ArenaBytesResident.Load(), 2*p.ArenaBytes)
	}
	if n := p.ReleasePool(); n != 2 {
		t.Fatalf("ReleasePool = %d, want 2", n)
	}
	if got := rec.Exec.ArenaBytesResident.Load(); got != 0 {
		t.Fatalf("resident after ReleasePool = %d, want 0", got)
	}
	if got := p.PooledExecutors(); got != 0 {
		t.Fatalf("PooledExecutors after ReleasePool = %d, want 0", got)
	}
	// In-flight executors returned after the release are discarded, and the
	// gauge still balances.
	e3 := p.AcquireExecutor()
	if rec.Exec.ArenaBytesResident.Load() != p.ArenaBytes {
		t.Fatalf("resident with one live executor = %d, want %d",
			rec.Exec.ArenaBytesResident.Load(), p.ArenaBytes)
	}
	p.ReleaseExecutor(e3)
	if got := p.PooledExecutors(); got != 0 {
		t.Fatalf("closed pool re-pooled an executor (%d)", got)
	}
	if got := rec.Exec.ArenaBytesResident.Load(); got != 0 {
		t.Fatalf("resident after late release = %d, want 0", got)
	}
	// The plan stays runnable after its pool is gone.
	if _, err := p.Run(in); err != nil {
		t.Fatal(err)
	}
}

func TestDictStoreSharingAcrossPlansIsBitIdentical(t *testing.T) {
	// Two models with an identical backbone: compiling through one shared
	// store must collapse the common programs to canonical pointers while
	// leaving outputs byte-identical to unshared compilation.
	store := ipe.NewDictStore()
	opts := Options{Force: ImplIPE}
	shared := opts
	shared.DictStore = store

	base, err := Compile(denseGraph(t, 11), opts)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := Compile(denseGraph(t, 11), shared)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(denseGraph(t, 11), shared)
	if err != nil {
		t.Fatal(err)
	}

	st := store.Stats()
	if st.ProgramHits == 0 {
		t.Fatalf("identical models interned no duplicates: %+v", st)
	}
	prog1, prog2 := p1.IPEPrograms(), p2.IPEPrograms()
	if len(prog1) == 0 || len(prog1) != len(prog2) {
		t.Fatalf("program lists: %d vs %d", len(prog1), len(prog2))
	}
	for i := range prog1 {
		if prog1[i] != prog2[i] {
			t.Fatalf("program %d not shared across plans", i)
		}
	}

	r := tensor.NewRNG(99)
	in := tensor.New(1, 1, 8, 8)
	tensor.FillGaussian(in, r, 1)
	want, err := base.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []*Plan{p1, p2} {
		got, err := p.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Data()) != len(want.Data()) {
			t.Fatalf("shared-dict plan %d output length differs", i+1)
		}
		for j := range got.Data() {
			if math.Float32bits(got.Data()[j]) != math.Float32bits(want.Data()[j]) {
				t.Fatalf("shared-dict plan %d output differs from unshared plan at %d", i+1, j)
			}
		}
	}
}

func TestResidentBytesSharedBackboneReduction(t *testing.T) {
	// The acceptance scenario: two models sharing a backbone encoding must
	// report ≥20% fewer resident bytes under the shared store than two
	// unshared encodings.
	unshared := Options{Force: ImplIPE}
	u1, err := Compile(denseGraph(t, 21), unshared)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := Compile(denseGraph(t, 21), unshared)
	if err != nil {
		t.Fatal(err)
	}
	o1, _ := u1.ResidentBytes(nil)
	o2, _ := u2.ResidentBytes(nil)
	unsharedTotal := o1 + o2

	store := ipe.NewDictStore()
	sharedOpts := unshared
	sharedOpts.DictStore = store
	s1, err := Compile(denseGraph(t, 21), sharedOpts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Compile(denseGraph(t, 21), sharedOpts)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[*ipe.Compiled]bool)
	own1, _ := s1.ResidentBytes(seen)
	own2, sh2 := s2.ResidentBytes(seen)
	sharedTotal := own1 + own2
	if sh2 == 0 {
		t.Fatal("second model reported no shared bytes")
	}
	if float64(sharedTotal) > 0.8*float64(unsharedTotal) {
		t.Fatalf("shared residency %d not ≥20%% below unshared %d", sharedTotal, unsharedTotal)
	}
}
