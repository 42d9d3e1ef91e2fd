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
// default options, to never-seen weights eighteen times with traffic after
// each swap, and requires the collected live heap after swaps 12 and 18 to
// be within 10 % of swap 6: a retired version must give back its plan, its
// interned programs and its metrics series. The first six swaps are warm-up,
// so a bounded cache that fills over them (a pool of encoder workspaces
// growing to the largest layer) is not read as a leak, while a leak, which
// grows with every swap, still shows at both readings. The race detector
// allocates on its own account, so the check runs without it.
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
	var at6 uint64
	for s := 1; s <= 18; s++ {
		if _, err := r.Swap("lenet5", uint64(1000+s)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Predict("lenet5", in); err != nil {
			t.Fatal(err)
		}
		switch s {
		case 6:
			at6 = liveHeap()
		case 12, 18:
			at := liveHeap()
			t.Logf("live heap after swap 6: %d B, after swap %d: %d B", at6, s, at)
			if float64(at) > 1.1*float64(at6) {
				t.Fatalf("live heap grew %d → %d B between swap 6 and swap %d (> 10 %%)", at6, at, s)
			}
		}
	}
}
