//go:build !race

package registry

import (
	goruntime "runtime"
	"testing"

	"repro/internal/ipe"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/serve"
)

// TestSwapChurnKeepsLiveHeapFlat swaps lenet5, compiled with inspire-serve's
// default options, to never-seen weights twelve times with traffic after
// each swap, and requires the collected live heap after swap 12 to be
// within 10 % of swap 3: a retired version must give back its plan, its
// interned programs and its metrics series. The race detector allocates on
// its own account, so the check runs without it.
func TestSwapChurnKeepsLiveHeapFlat(t *testing.T) {
	metrics.Enable()
	defer metrics.Disable()
	store := ipe.NewDictStore()
	opts := runtime.Options{Force: runtime.ImplAuto, Bits: 4, DictStore: store}
	r, err := New(Options{
		Compile: func(model string, seed uint64) (*runtime.Plan, error) {
			return obs.CompilePlan(model, seed, opts)
		},
		Serve:     serve.Config{MaxBatch: 8},
		DictStore: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	in, err := obs.InputFor("lenet5")
	if err != nil {
		t.Fatal(err)
	}
	liveHeap := func() uint64 {
		var ms goruntime.MemStats
		goruntime.GC()
		goruntime.GC()
		goruntime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	if _, err := r.Add("lenet5", 1000); err != nil {
		t.Fatal(err)
	}
	var at3 uint64
	for s := 1; s <= 12; s++ {
		if _, err := r.Swap("lenet5", uint64(1000+s)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Predict("lenet5", in); err != nil {
			t.Fatal(err)
		}
		if s == 3 {
			at3 = liveHeap()
		}
	}
	at12 := liveHeap()
	t.Logf("live heap after swap 3: %d B, after swap 12: %d B", at3, at12)
	if float64(at12) > 1.1*float64(at3) {
		t.Fatalf("live heap grew %d → %d B between swap 3 and swap 12 (> 10 %%)", at3, at12)
	}
}
