//go:build !race

package obs

import (
	goruntime "runtime"
	"testing"

	"repro/internal/runtime"
)

// TestCompileAllocationBudget gates what a hot swap charges the collector:
// compiles of each served model on two compile workers, graph construction
// included, as BenchmarkCompileSqueezeNet measures them, under
// inspire-serve's default options and under auto selection, which keeps the
// IPE compile path (encoder, ranking, interning) gated. Each model compiles
// twice. The first compile is cold, as the first of a shape in a process
// is: the test empties the dense-simulation memo (runtime.ForgetDenseSims)
// that other tests in the process may have filled, and an auto compile
// fills it again. The second, to new weights, is what every later hot swap
// pays.
//
// Auto: before the compile path lost its per-round and per-row maps the
// same compiles read 340.8 K allocations / 140 MB (squeezenet) and 30.9 K
// (lenet5); before factorized was ranked from counts and programs were
// assembled from one backing array they read about 59 K / 37 MB and 5.5 K.
// When this budget was set they read, cold then warm, up to 4.7 K / 30 MB
// then 3.8 K / 24 MB (squeezenet) and 1.1 K / 4.4 MB then 1.0 K / 4.1 MB
// (lenet5) at GOMAXPROCS 1 to 8, the upper ends when a collection has
// emptied the encoder workspace pool before the compile (15 MB warm when it
// has not); the budgets leave about 25 % above those. Dropping the compiled
// form's second copy of the emit stream (the single-vector tape) took about
// 2 MB off each squeezenet compile: the same runs then read up to 4.5 K /
// 26 MB cold and 3.6 K / 18 MB warm (30.7 and 20.2 MB before, GOMAXPROCS 1
// to 8), and the squeezenet byte budgets came down by 2 MB.
//
// Served (factorized): no encoder and no dense simulation, so cold and warm
// read alike. While each layer was counted, grouped into a program and
// lowered by the general compile pass they read up to 3.1 K / 14.5 MB
// (squeezenet) and 714 / 1.3 MB (lenet5) at GOMAXPROCS 1 to 8. Since the
// factorized streams come out of the row grouping they read up to 2.7 K /
// 10.3 MB and 681 / 1.0 MB, with about 25 % above those as the budget.
//
// The race detector allocates on its own account, so the gate runs without
// it.
func TestCompileAllocationBudget(t *testing.T) {
	type budget struct{ allocs, bytes uint64 }
	served := ServedOptions().Force
	for _, tc := range []struct {
		model      string
		force      runtime.Impl
		cold, warm budget
	}{
		{"lenet5", served, budget{850, 1_300 << 10}, budget{850, 1_300 << 10}},
		{"squeezenet", served, budget{3_300, 13 << 20}, budget{3_300, 13 << 20}},
		{"lenet5", runtime.ImplAuto, budget{1_400, 5_500 << 10}, budget{1_300, 5_200 << 10}},
		{"squeezenet", runtime.ImplAuto, budget{5_900, 36 << 20}, budget{4_800, 28 << 20}},
	} {
		for i, b := range []budget{tc.cold, tc.warm} {
			opts := serveDefaults()
			opts.Force = tc.force
			opts.Workers = 2
			if i == 0 {
				runtime.ForgetDenseSims()
			}
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			if _, err := CompilePlan(tc.model, uint64(i), opts); err != nil {
				t.Fatal(err)
			}
			goruntime.ReadMemStats(&after)
			allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
			state := []string{"cold", "warm"}[i]
			t.Logf("%s (%s) %s: %d allocations, %.1f MB", tc.model, tc.force, state, allocs, float64(bytes)/(1<<20))
			if allocs > b.allocs || bytes > b.bytes {
				t.Errorf("%s (%s) %s compile: %d allocations / %d bytes, budget %d / %d",
					tc.model, tc.force, state, allocs, bytes, b.allocs, b.bytes)
			}
		}
	}
}
