package runtime_test

import (
	"fmt"
	"testing"

	"repro/internal/ipe"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// BenchmarkHostSweep is the host sweep behind inspire-serve's default:
// both served models at their served input, compiled at four
// configurations, run at 1 and 8 items as one Executor.Run pinned to one
// intra-op shard (what each RunBatch worker runs once a flush has a worker
// per core; sharding a single item is ROADMAP item 10). Sub-benchmarks are
// model/config/items. One invocation runs every cell once in that order, so
// repeating the invocation (not -count, which repeats each cell back to
// back) gives interleaved rounds, compared pairwise per cell
// (EXPERIMENTS.md, "Host serving: D = 0"):
//
//	go test -c -o rt.test ./internal/runtime
//	for r in $(seq 20); do ./rt.test -test.run '^$' -test.bench HostSweep -test.benchtime 0.3s; done
func BenchmarkHostSweep(b *testing.B) {
	// D = 0 against the paper's default encoding and the two stopping rules
	// that merge least: a pair needs 16 occurrences, or the dictionary holds
	// 256 entries.
	minPair, maxDict := ipe.DefaultConfig(), ipe.DefaultConfig()
	minPair.MinPairCount = 16
	maxDict.MaxDict = 256
	configs := []struct {
		name string
		opts runtime.Options
	}{
		{"factorized", runtime.Options{Force: runtime.ImplFactorized, Bits: 4}},
		{"ipe", runtime.Options{Force: runtime.ImplIPE, Bits: 4}},
		{"ipe-minpair16", runtime.Options{Force: runtime.ImplIPE, Bits: 4, IPE: minPair}},
		{"ipe-maxdict256", runtime.Options{Force: runtime.ImplIPE, Bits: 4, IPE: maxDict}},
	}
	for _, model := range []string{"lenet5", "squeezenet"} {
		one, err := obs.InputFor(model)
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range configs {
			plan, err := obs.CompilePlan(model, 0, cfg.opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, items := range []int{1, 8} {
				shape := one.Shape().Clone()
				shape[0] *= items
				in := tensor.New(shape...)
				tensor.FillGaussian(in, tensor.NewRNG(uint64(items)), 1)
				b.Run(fmt.Sprintf("%s/%s/items=%d", model, cfg.name, items), func(b *testing.B) {
					e := plan.NewExecutor()
					e.SetParallelism(1)
					if _, err := e.Run(in); err != nil { // bind the arena at this width
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := e.Run(in); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
