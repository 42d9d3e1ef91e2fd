//go:build !race

package obs

import (
	goruntime "runtime"
	"testing"
)

// TestCompileAllocationBudget gates what a hot swap charges the collector:
// one default-option compile of each served model, graph construction
// included, as BenchmarkCompileSqueezeNetAuto measures it. Before the
// compile path lost its per-round and per-row maps the same compiles read
// 340.8 K allocations / 140 MB (squeezenet) and 30.9 K (lenet5); they read
// about 61 K / 55 MB and 5.5 K when this budget was set. The race detector
// allocates on its own account, so the gate runs without it.
func TestCompileAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		model     string
		maxAllocs uint64
		maxBytes  uint64
	}{
		{"lenet5", 10_000, 70 << 20},
		{"squeezenet", 100_000, 70 << 20},
	} {
		opts := serveDefaults()
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		if _, err := CompilePlan(tc.model, 0, opts); err != nil {
			t.Fatal(err)
		}
		goruntime.ReadMemStats(&after)
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%s: %d allocations, %.1f MB", tc.model, allocs, float64(bytes)/(1<<20))
		if allocs > tc.maxAllocs || bytes > tc.maxBytes {
			t.Errorf("%s compile: %d allocations / %d bytes, budget %d / %d",
				tc.model, allocs, bytes, tc.maxAllocs, tc.maxBytes)
		}
	}
}
