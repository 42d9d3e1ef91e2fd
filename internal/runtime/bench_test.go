package runtime_test

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// BenchmarkRunBatchSqueezeNet times Plan.RunBatch on the served model and
// input (SqueezeNet at 32×32, compiled as the server compiles it) at 1 and
// 8 items with one worker per CPU: the kernel-level figure behind a
// coalesced predict. At 8 items each worker runs its items as one
// multi-item Executor.Run.
func BenchmarkRunBatchSqueezeNet(b *testing.B) {
	plan, err := obs.CompilePlan("squeezenet", 0, runtime.Options{Bits: 4})
	if err != nil {
		b.Fatal(err)
	}
	one, err := obs.InputFor("squeezenet")
	if err != nil {
		b.Fatal(err)
	}
	for _, items := range []int{1, 8} {
		shape := one.Shape().Clone()
		shape[0] *= items
		in := tensor.New(shape...)
		tensor.FillGaussian(in, tensor.NewRNG(uint64(items)), 1)
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			workers := goruntime.GOMAXPROCS(0)
			if _, err := plan.RunBatch(in, workers); err != nil { // warm the pool
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.RunBatch(in, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
