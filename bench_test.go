// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the evaluation (delegating to internal/experiments),
// plus kernel-level micro-benchmarks that compare the real CPU cost of the
// dense, CSR, factorized and IPE executors on identical weights.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Individual experiments: go test -bench=BenchmarkFig4 (etc.). The
// experiment benchmarks run the Fast configuration; use cmd/inspire-bench
// for full-scale tables.
package repro

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/accel"
	"repro/internal/autotune"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/ipe"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/runtime"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

// benchExperiment runs one experiment driver per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Out: io.Discard, Fast: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Workloads regenerates Table 1 (workload characteristics).
func BenchmarkTable1Workloads(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2Arithmetic regenerates Table 2 (per-layer op reduction).
func BenchmarkTable2Arithmetic(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3Encoding regenerates Table 3 (encoding cost).
func BenchmarkTable3Encoding(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4Energy regenerates Table 4 (traffic & energy).
func BenchmarkTable4Energy(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFig4PerLayer regenerates Fig 4 (per-layer speedups).
func BenchmarkFig4PerLayer(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5EndToEnd regenerates Fig 5 (end-to-end latency).
func BenchmarkFig5EndToEnd(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6aBits regenerates Fig 6a (bit-width sensitivity).
func BenchmarkFig6aBits(b *testing.B) { benchExperiment(b, "fig6a") }

// BenchmarkFig6bDict regenerates Fig 6b (dictionary budget sensitivity).
func BenchmarkFig6bDict(b *testing.B) { benchExperiment(b, "fig6b") }

// BenchmarkFig6cSparsity regenerates Fig 6c (sparsity sensitivity).
func BenchmarkFig6cSparsity(b *testing.B) { benchExperiment(b, "fig6c") }

// BenchmarkFig7Tuning regenerates Fig 7 (tuner convergence).
func BenchmarkFig7Tuning(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8Ablation regenerates Fig 8 (encoder ablation).
func BenchmarkFig8Ablation(b *testing.B) { benchExperiment(b, "fig8") }

// --- Kernel micro-benchmarks -------------------------------------------

// benchLayer builds the shared 64x576 (64 out-channels, 64·3·3 reduction)
// quantized layer used by the executor comparison.
func benchLayer(b *testing.B) (*quant.Quantized, []float32) {
	b.Helper()
	r := tensor.NewRNG(1)
	w := tensor.New(64, 576)
	tensor.FillGaussian(w, r, tensor.KaimingStd(576))
	q := quant.Quantize(w, 4, quant.PerTensor)
	x := make([]float32, 576)
	for i := range x {
		x[i] = float32(r.NormFloat64())
	}
	return q, x
}

// BenchmarkExecDenseMatVec is the dense CPU baseline of the executor
// comparison: a 64x576 GEMV.
func BenchmarkExecDenseMatVec(b *testing.B) {
	q, x := benchLayer(b)
	deq := q.Dequantize()
	y := make([]float32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatVec(deq.Data(), x, y, 64, 576)
	}
}

// benchMatVec times p's compiled matrix executor on x as one column, the
// path a dense layer serves a single item on.
func benchMatVec(b *testing.B, p *ipe.Program, x []float32) {
	c := p.Compiled()
	y := make([]float32, p.M)
	par := tensor.NewPar(nil, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ExecuteMatrixIntoPar(y, x, 1, par)
	}
}

// BenchmarkExecCSRMatVec measures the CSR form on the same weights: the
// one-term-per-nonzero program at one column.
func BenchmarkExecCSRMatVec(b *testing.B) {
	q, x := benchLayer(b)
	benchMatVec(b, ipe.Sparse(q), x)
}

// BenchmarkExecFactorizedMatVec measures the UCNN-style form: the
// empty-dictionary program at one column.
func BenchmarkExecFactorizedMatVec(b *testing.B) {
	q, x := benchLayer(b)
	benchMatVec(b, ipe.Factorize(q), x)
}

// BenchmarkExecIPEMatVec measures the index-pair encoded program at one
// column — the real-CPU counterpart of the modeled speedups.
func BenchmarkExecIPEMatVec(b *testing.B) {
	q, x := benchLayer(b)
	prog, _, err := ipe.Encode(q, ipe.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	benchMatVec(b, prog, x)
}

// BenchmarkDenseLayer times lenet5's fully connected layers — fc1
// (400 → 120) and fc2 (120 → 84), IPE programs in the auto plan
// (inspire-serve -force auto) — at 1, 2 and 8 items through the executor's
// dense driver, Compiled.DenseIntoPar, on the served streams with the fused
// ReLU, on one shard, as the executor runs them.
func BenchmarkDenseLayer(b *testing.B) {
	plan, err := obs.CompilePlan("lenet5", 0, runtime.Options{Bits: 4, DictStore: ipe.NewDictStore()})
	if err != nil {
		b.Fatal(err)
	}
	streams := map[int]*ipe.Compiled{}
	for _, c := range plan.IPEPrograms() {
		streams[c.K] = c
	}
	for _, fc := range []struct {
		name string
		k    int
	}{{"fc1", 400}, {"fc2", 120}} {
		c := streams[fc.k]
		if c == nil {
			b.Fatalf("%s: the lenet5 auto plan serves no IPE program of width %d", fc.name, fc.k)
		}
		bias := tensor.New(c.M)
		for _, n := range []int{1, 2, 8} {
			in := tensor.New(n, c.K)
			tensor.FillGaussian(in, tensor.NewRNG(uint64(n)), 1)
			out := tensor.New(n, c.M)
			par := tensor.NewPar(nil, 1)
			b.Run(fmt.Sprintf("%s/items=%d", fc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.DenseIntoPar(out, in, bias, true, par)
				}
			})
		}
	}
}

// BenchmarkEncodeMidLayer measures encoder throughput on a 128x1152 layer.
func BenchmarkEncodeMidLayer(b *testing.B) {
	r := tensor.NewRNG(2)
	w := tensor.New(128, 1152)
	tensor.FillGaussian(w, r, tensor.KaimingStd(1152))
	q := quant.Quantize(w, 4, quant.PerTensor)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ipe.Encode(q, ipe.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeLargeLayer measures the encoder on a 512x4608 layer (a
// ResNet stage-4 3x3 conv): ~1.7M non-zero codes in 7K sequences, the size
// at which the encoder used to shard its pair count across cores and now
// runs on one.
func BenchmarkEncodeLargeLayer(b *testing.B) {
	r := tensor.NewRNG(5)
	w := tensor.New(512, 4608)
	tensor.FillGaussian(w, r, tensor.KaimingStd(4608))
	q := quant.Quantize(w, 4, quant.PerTensor)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ipe.Encode(q, ipe.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGemm measures the blocked GEMM on 128^3.
func BenchmarkGemm(b *testing.B) {
	r := tensor.NewRNG(3)
	const n = 128
	a := make([]float32, n*n)
	bb := make([]float32, n*n)
	c := make([]float32, n*n)
	for i := range a {
		a[i] = float32(r.NormFloat64())
		bb[i] = float32(r.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Gemm(a, bb, c, n, n, n)
	}
}

// BenchmarkConvIm2col measures the im2col convolution path on a ResNet
// stage-2 shape.
func BenchmarkConvIm2col(b *testing.B) {
	r := tensor.NewRNG(4)
	spec := tensor.ConvSpec{InC: 64, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.1)
	in := tensor.New(1, 64, 16, 16)
	tensor.FillGaussian(in, r, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DIm2col(in, w, nil, spec)
	}
}

// BenchmarkAccelSimulateTiles measures the event simulator on a 4096-tile
// pipeline: 2^24 adds and muls, 2^25 SRAM accesses and 2^26 DRAM bytes in
// all, of which 1 MiB of stationary weights loads with the first tile.
func BenchmarkAccelSimulateTiles(b *testing.B) {
	c := accel.Default()
	tiles := make([]accel.Tile, 4096)
	for i := range tiles {
		tiles[i] = accel.Tile{LoadBytes: 8064, StoreBytes: 8064, Adds: 1 << 12, Muls: 1 << 12, SRAMAccesses: 1 << 13}
	}
	tiles[0].LoadBytes += 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SimulateTiles("bench", tiles)
	}
}

// BenchmarkTunerGenetic measures the genetic tuner on a real schedule
// space (120 evaluations).
func BenchmarkTunerGenetic(b *testing.B) {
	wl := schedule.Workload{
		Spec: tensor.ConvSpec{InC: 64, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		N:    1, H: 16, W: 16,
	}
	sp := schedule.NewSpace(wl, accel.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		autotune.Genetic{}.Tune(sp, 120, uint64(i))
	}
}

// BenchmarkPlanMemoryResNet measures the arena planner on ResNet-18.
func BenchmarkPlanMemoryResNet(b *testing.B) {
	g := nn.ResNet18(1, 32, 10, 1)
	if err := graph.Optimize(g); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runtime.PlanMemory(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileLeNetAuto measures full compilation (all candidates,
// auto selection) of LeNet-5.
func BenchmarkCompileLeNetAuto(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := nn.LeNet5(1, 1)
		if _, err := runtime.Compile(g, runtime.Options{Bits: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileSqueezeNet measures the compile a hot swap pays: the
// served 32x32 SqueezeNet through obs.CompilePlan with inspire-serve's
// default options (obs.ServedOptions, factorized) and with -force auto,
// which encodes, ranks and interns every layer's IPE candidate, each on one
// compile worker and on GOMAXPROCS. allocs/op and B/op are the garbage a
// swap charges to the predicts running beside it (internal/obs
// TestCompileAllocationBudget gates them).
func BenchmarkCompileSqueezeNet(b *testing.B) {
	for _, force := range []runtime.Impl{obs.ServedOptions().Force, runtime.ImplAuto} {
		for _, workers := range []int{1, 0} {
			b.Run(fmt.Sprintf("force=%s/workers=%d", force, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					opts := obs.ServedOptions()
					opts.Force, opts.DictStore, opts.Workers = force, ipe.NewDictStore(), workers
					if _, err := obs.CompilePlan("squeezenet", 0, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable5Storage regenerates Table 5 (weight storage comparison).
func BenchmarkTable5Storage(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkTable6Sharing regenerates Table 6 (cross-layer dictionary
// sharing).
func BenchmarkTable6Sharing(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkFig9Banks regenerates Fig 9 (bank-conflict sensitivity).
func BenchmarkFig9Banks(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10Hardware regenerates Fig 10 (hardware sensitivity).
func BenchmarkFig10Hardware(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11Distributions regenerates Fig 11 (distribution
// sensitivity).
func BenchmarkFig11Distributions(b *testing.B) { benchExperiment(b, "fig11") }

// benchPlan compiles the LeNet-5 benchmark graph once per benchmark and
// returns it with a matching Gaussian input.
func benchPlan(b *testing.B, batch int) (*runtime.Plan, *tensor.Tensor) {
	b.Helper()
	g := nn.LeNet5(1, 41)
	plan, err := runtime.Compile(g, runtime.Options{})
	if err != nil {
		b.Fatal(err)
	}
	in := tensor.New(batch, 1, 28, 28)
	tensor.FillGaussian(in, tensor.NewRNG(42), 1)
	return plan, in
}

// BenchmarkRunSteadyState measures one warm Executor doing repeated
// inference at one intra-op shard: destination-passing into the planned
// arena, so allocs/op must report 0 after the warm-up run. The executor is
// pinned to one shard because a sharded region still allocates (about 18
// allocs/op at two shards); at GOMAXPROCS shards the figure would depend on
// the host's core count.
func BenchmarkRunSteadyState(b *testing.B) {
	plan, in := benchPlan(b, 1)
	e := plan.NewExecutor()
	e.SetParallelism(1)
	if _, err := e.Run(in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunBatchPooled measures parallel batched inference with workers
// drawing warm Executors from the plan's pool.
func BenchmarkRunBatchPooled(b *testing.B) {
	plan, in := benchPlan(b, 8)
	if _, err := plan.RunBatch(in, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.RunBatch(in, 0); err != nil {
			b.Fatal(err)
		}
	}
}
