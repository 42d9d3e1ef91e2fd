package registry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/ipe"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// testGraph builds a tiny conv→flatten→dense network whose weights derive
// from the seed, so distinct seeds are distinct versions.
func testGraph(tb testing.TB, seed uint64) *graph.Graph {
	tb.Helper()
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
		tb.Fatal(err)
	}
	return g
}

// testCompile is the CompileFunc used throughout: every version compiles
// through identical options (plus an optional shared store), exactly the
// contract inspire-serve's obs.CompilePlan keeps.
func testCompile(tb testing.TB, store *ipe.DictStore) CompileFunc {
	return func(model string, seed uint64) (*runtime.Plan, error) {
		return runtime.Compile(testGraph(tb, seed), runtime.Options{Force: runtime.ImplIPE, DictStore: store})
	}
}

func testRegistry(tb testing.TB, store *ipe.DictStore) *Registry {
	tb.Helper()
	r, err := New(Options{
		Compile:   testCompile(tb, store),
		Serve:     serve.Config{MaxBatch: 8},
		DictStore: store,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func testInput() *tensor.Tensor {
	in := tensor.New(1, 1, 8, 8)
	tensor.FillGaussian(in, tensor.NewRNG(3), 1)
	return in
}

func TestAddSwapVersionsAndInfo(t *testing.T) {
	r := testRegistry(t, nil)
	defer r.Close()
	v1, err := r.Add("m", 1)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != 1 {
		t.Fatalf("first version = %d, want 1", v1.Version)
	}
	if _, err := r.Add("m", 1); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	info, ok := r.Info("m")
	if !ok || info.Version != 1 || len(info.InputShape) == 0 || info.MaxBatch != 8 {
		t.Fatalf("Info = %+v, %v", info, ok)
	}

	out1, ver, err := r.Predict("m", testInput())
	if err != nil || ver != 1 {
		t.Fatalf("Predict v1: ver=%d err=%v", ver, err)
	}

	v2, err := r.Swap("m", 2)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version != 2 {
		t.Fatalf("second version = %d, want 2", v2.Version)
	}
	m, _ := r.Model("m")
	if m.Swaps() != 1 {
		t.Fatalf("Swaps = %d, want 1", m.Swaps())
	}
	out2, ver, err := r.Predict("m", testInput())
	if err != nil || ver != 2 {
		t.Fatalf("Predict v2: ver=%d err=%v", ver, err)
	}
	// Different seeds must actually change the weights, or the swap test is
	// vacuous.
	same := true
	for i := range out1.Data() {
		if out1.Data()[i] != out2.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("version 2 output identical to version 1: seeds did not change weights")
	}

	if _, err := r.Swap("nope", 1); err != serve.ErrUnknownModel {
		t.Fatalf("Swap unknown model: %v", err)
	}
	if _, _, err := r.Predict("nope", testInput()); err != serve.ErrUnknownModel {
		t.Fatalf("Predict unknown model: %v", err)
	}
}

// TestInfoMaxBatchDefault checks that an unset Serve.MaxBatch reports the
// batcher's own default, not a copy of it.
func TestInfoMaxBatchDefault(t *testing.T) {
	r, err := New(Options{Compile: testCompile(t, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	v, err := r.Add("m", 1)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := r.Info("m")
	if !ok || info.MaxBatch != v.Batcher.MaxBatch() || info.MaxBatch <= 0 {
		t.Fatalf("Info = %+v, %v; batcher MaxBatch %d", info, ok, v.Batcher.MaxBatch())
	}
}

func TestSwapReleasesOldPoolAndPublishesMetrics(t *testing.T) {
	rec := metrics.Enable()
	defer metrics.Disable()
	r := testRegistry(t, nil)
	defer r.Close()
	if _, err := r.Add("m", 1); err != nil {
		t.Fatal(err)
	}
	m, _ := r.Model("m")
	old := m.Current()
	// Warm the old pool so the swap has something to release.
	if _, _, err := r.Predict("m", testInput()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap("m", 2); err != nil {
		t.Fatal(err)
	}
	if n := old.Plan.PooledExecutors(); n != 0 {
		t.Fatalf("old version still pools %d executors after swap", n)
	}
	snap := rec.Snapshot()
	var found bool
	for _, ms := range snap.Models {
		if ms.Name == "m" {
			found = true
			if ms.Version != 2 || ms.Swaps != 1 || ms.ResidentBytes <= 0 {
				t.Fatalf("model snapshot %+v", ms)
			}
		}
	}
	if !found {
		t.Fatal("no model series in snapshot")
	}
}

func TestSharedDictResidencyAcrossModels(t *testing.T) {
	store := ipe.NewDictStore()
	r := testRegistry(t, store)
	defer r.Close()
	// Two models from the same seed share their whole backbone encoding.
	if _, err := r.Add("a", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("b", 7); err != nil {
		t.Fatal(err)
	}
	res := r.Residency()
	if len(res) != 2 {
		t.Fatalf("Residency rows = %d", len(res))
	}
	if res[0].SharedRefs != 0 {
		t.Fatalf("first model should own its programs: %+v", res[0])
	}
	if res[1].SharedRefs == 0 {
		t.Fatalf("second model shares nothing: %+v", res[1])
	}
	if res[1].OwnedBytes >= res[0].OwnedBytes {
		t.Fatalf("interning saved nothing: %+v vs %+v", res[1], res[0])
	}
	// Swapping one model to the same seed keeps sharing (successive versions
	// re-intern to the same canonical programs).
	if _, err := r.Swap("b", 7); err != nil {
		t.Fatal(err)
	}
	res = r.Residency()
	if res[1].SharedRefs == 0 {
		t.Fatalf("post-swap model shares nothing: %+v", res[1])
	}
	if store.Stats().ProgramHits == 0 {
		t.Fatal("store recorded no program hits")
	}
}

func TestResizePoolsAppliesLittlesLaw(t *testing.T) {
	metrics.Enable()
	defer metrics.Disable()
	r := testRegistry(t, nil)
	defer r.Close()
	if _, err := r.Add("m", 1); err != nil {
		t.Fatal(err)
	}
	// Idle model: clamped to MinPool.
	applied := r.ResizePools()
	if applied["m"] != r.opts.MinPool {
		t.Fatalf("idle pool = %d, want MinPool %d", applied["m"], r.opts.MinPool)
	}
	// Drive traffic so the endpoint series has QPS and latency, then resize.
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, _, err := r.Predict("m", testInput()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	applied = r.ResizePools()
	if applied["m"] < r.opts.MinPool || applied["m"] > r.opts.MaxPool {
		t.Fatalf("pool %d outside [%d,%d]", applied["m"], r.opts.MinPool, r.opts.MaxPool)
	}
}

func TestHTTPEndpointsThroughHandler(t *testing.T) {
	metrics.Enable()
	defer metrics.Disable()
	r := testRegistry(t, ipe.NewDictStore())
	defer r.Close()
	if _, err := r.Add("m", 1); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewHandler(r))
	defer srv.Close()

	// The provider path: predict carries model + version.
	rep, err := serve.RunLoad(serve.LoadConfig{
		URL: srv.URL, Model: "m", Clients: 2, Duration: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 || rep.MisRouted != 0 || rep.VersionRegressions != 0 {
		t.Fatalf("load report %+v", rep)
	}
	if rep.MaxVersion != 1 {
		t.Fatalf("MaxVersion = %d, want 1", rep.MaxVersion)
	}

	// The swap endpoint installed via ExtendMux: a second load run that
	// hot-swaps mid-run must see the version advance with zero drops.
	rep, err = serve.RunLoad(serve.LoadConfig{
		URL: srv.URL, Model: "m", Clients: 2, Duration: 400 * time.Millisecond,
		SwapModel: "m", SwapSeed: 2, SwapAfter: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SwapStatus != 200 || rep.SwapVersion != 2 {
		t.Fatalf("swap outcome status=%d version=%d", rep.SwapStatus, rep.SwapVersion)
	}
	if rep.Failed != 0 || rep.MisRouted != 0 || rep.VersionRegressions != 0 {
		t.Fatalf("swap load report %+v", rep)
	}
	if rep.MinVersion != 1 || rep.MaxVersion != 2 {
		t.Fatalf("versions [%d,%d], want [1,2]", rep.MinVersion, rep.MaxVersion)
	}

	// Per-model metrics endpoint: filtered snapshot only has this model's
	// series.
	resp, err := srv.Client().Get(srv.URL + "/v1/models/m/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Endpoints) != 1 || snap.Endpoints[0].Name != "m" {
		t.Fatalf("filtered endpoints %+v", snap.Endpoints)
	}
	for _, l := range snap.Layers {
		if !strings.HasPrefix(l.Name, "m@v") {
			t.Fatalf("foreign layer series %q in filtered snapshot", l.Name)
		}
	}
	resp, err = srv.Client().Get(srv.URL + "/v1/models/nope/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown model metrics status %d", resp.StatusCode)
	}

	// Residency report endpoint.
	resp, err = srv.Client().Get(srv.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reg struct {
		Models []ModelResidency `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if len(reg.Models) != 1 || reg.Models[0].OwnedBytes <= 0 {
		t.Fatalf("residency %+v", reg.Models)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	r := testRegistry(t, nil)
	if _, err := r.Add("m", 1); err != nil {
		t.Fatal(err)
	}
	m, _ := r.Model("m")
	r.Close()
	r.Close() // idempotent
	if _, _, err := r.Predict("m", testInput()); err != serve.ErrClosed {
		t.Fatalf("Predict after Close: %v", err)
	}
	if _, err := r.Add("late", 1); err != serve.ErrClosed {
		t.Fatalf("Add after Close: %v", err)
	}
	if n := m.Current().Plan.PooledExecutors(); n != 0 {
		t.Fatalf("closed registry pools %d executors", n)
	}
}

// FuzzRegistrySwap drives concurrent Predicts against a registry while the
// fuzzed seed sequence hot-swaps versions, and byte-checks every output
// against a reference plan compiled from the version that claimed to serve
// it. Any dropped request, mis-versioned response, or byte divergence
// fails.
func FuzzRegistrySwap(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3))
	f.Add(uint64(7), uint64(7), uint64(7))
	f.Add(uint64(0), uint64(1), uint64(0))
	f.Fuzz(func(t *testing.T, s1, s2, s3 uint64) {
		store := ipe.NewDictStore()
		r := testRegistry(t, store)
		defer r.Close()
		if _, err := r.Add("m", s1); err != nil {
			t.Fatal(err)
		}
		// Reference outputs per seed, compiled unshared: whatever version
		// serves a request, its bytes must match its seed's reference.
		seeds := []uint64{s1, s2, s3}
		refs := make(map[int64][]float32, 3)
		in := testInput()
		for i, s := range seeds {
			p, err := runtime.Compile(testGraph(t, s), runtime.Options{Force: runtime.ImplIPE})
			if err != nil {
				t.Fatal(err)
			}
			out, err := p.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			refs[int64(i+1)] = out.Data()
		}

		done := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				last := int64(0)
				for {
					select {
					case <-done:
						return
					default:
					}
					out, ver, err := r.Predict("m", in)
					if err != nil {
						t.Errorf("Predict dropped a request: %v", err)
						return
					}
					if ver < last {
						t.Errorf("version regressed %d -> %d", last, ver)
						return
					}
					last = ver
					want := refs[ver]
					if len(out.Data()) != len(want) {
						t.Errorf("version %d output length %d != %d", ver, len(out.Data()), len(want))
						return
					}
					for j := range want {
						if out.Data()[j] != want[j] {
							t.Errorf("version %d output diverges at %d", ver, j)
							return
						}
					}
				}
			}()
		}
		for _, s := range seeds[1:] {
			if _, err := r.Swap("m", s); err != nil {
				t.Error(err)
			}
		}
		close(done)
		wg.Wait()
	})
}

// layerPrefixes counts the snapshot's layer series by version prefix (the
// "model@vN/" part of the name).
func layerPrefixes(snap metrics.Snapshot) map[string]int {
	by := make(map[string]int)
	for _, l := range snap.Layers {
		if i := strings.Index(l.Name, "/"); i >= 0 {
			by[l.Name[:i+1]]++
		}
	}
	return by
}

// TestRetiredVersionsDropTheirSeries: hot swaps leave exactly the serving
// version's layer series per model, while the model's endpoint and registry
// series stay continuous.
func TestRetiredVersionsDropTheirSeries(t *testing.T) {
	rec := metrics.Enable()
	defer metrics.Disable()
	r := testRegistry(t, ipe.NewDictStore())
	defer r.Close()
	models := []string{"a", "b"}
	for i, name := range models {
		if _, err := r.Add(name, uint64(10+i)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Predict(name, testInput()); err != nil {
			t.Fatal(err)
		}
	}
	perVersion := layerPrefixes(rec.Snapshot())["a@v1/"]
	if perVersion == 0 {
		t.Fatal("no layer series registered for a@v1")
	}
	for s := 0; s < 5; s++ {
		for i, name := range models {
			if _, err := r.Swap(name, uint64(100+10*s+i)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := r.Predict(name, testInput()); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := rec.Snapshot()
	want := map[string]int{"a@v6/": perVersion, "b@v6/": perVersion}
	got := layerPrefixes(snap)
	if len(got) != len(want) || got["a@v6/"] != perVersion || got["b@v6/"] != perVersion {
		t.Fatalf("layer series by version after 5 swaps = %v, want %v", got, want)
	}
	for _, name := range models {
		ep := snap.FilterModel(name).Endpoints
		if len(ep) != 1 || ep[0].Requests != 6 {
			t.Fatalf("%s endpoint series %+v, want one series with 6 requests", name, ep)
		}
	}
}

// TestSwapsToFreshWeightsKeepTheStoreFlat: every swap to never-seen weights
// interns a new version's programs and retires the old version's, so the
// store holds one version's worth however many swaps have run.
func TestSwapsToFreshWeightsKeepTheStoreFlat(t *testing.T) {
	store := ipe.NewDictStore()
	r := testRegistry(t, store)
	defer r.Close()
	if _, err := r.Add("m", 1); err != nil {
		t.Fatal(err)
	}
	wantLen, wantUnique := store.Len(), store.Stats().UniquePrograms
	if wantLen == 0 {
		t.Fatal("first load interned nothing")
	}
	for s := uint64(2); s <= 13; s++ {
		if _, err := r.Swap("m", s); err != nil {
			t.Fatal(err)
		}
	}
	if got, unique := store.Len(), store.Stats().UniquePrograms; got != wantLen || unique != wantUnique {
		t.Fatalf("after 12 swaps: Len %d / UniquePrograms %d, want %d / %d", got, unique, wantLen, wantUnique)
	}
}
