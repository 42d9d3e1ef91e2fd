package runtime

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestExecutorMetrics runs a LeNet-5 plan under an enabled recorder and
// checks every metric family the executor is supposed to feed: per-layer
// series with the right kernel tags and counts, executor/arena accounting,
// pool telemetry under forced sharding, and batch accounting via RunBatch.
func TestExecutorMetrics(t *testing.T) {
	rec := EnableMetrics()
	defer DisableMetrics()

	g := nn.LeNet5(1, 3)
	plan, err := Compile(g, Options{Force: ImplIPE, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan.MetricsPrefix = "lenet5/"

	in := tensor.New(1, 1, 28, 28)
	tensor.FillGaussian(in, tensor.NewRNG(1), 1)
	const runs = 3
	for i := 0; i < runs; i++ {
		if _, err := plan.Run(in); err != nil {
			t.Fatal(err)
		}
	}

	// A sharded run must touch the worker pool even on one core (the pool
	// keeps one helper token there).
	e := plan.AcquireExecutor()
	e.SetParallelism(2)
	if _, err := e.Run(in); err != nil {
		t.Fatal(err)
	}
	plan.ReleaseExecutor(e)

	big := tensor.New(4, 1, 28, 28)
	tensor.FillGaussian(big, tensor.NewRNG(2), 1)
	if _, err := plan.RunBatch(big, 2); err != nil {
		t.Fatal(err)
	}

	s := rec.Snapshot()

	if len(s.Layers) == 0 {
		t.Fatal("no layer series recorded")
	}
	// 3 Plan.Run + 1 sharded Run + 2 RunBatch runs (4 items over 2
	// workers, 2 items per run) = 6 executions/layer: a layer sample, like
	// Exec.Runs, counts runs, and mean_batch carries the items.
	const wantPerLayer = runs + 1 + 2
	byName := make(map[string]metrics.LayerSnapshot)
	for _, l := range s.Layers {
		byName[l.Name] = l
	}
	conv1, ok := byName["lenet5/conv1"]
	if !ok {
		t.Fatalf("conv1 series missing; have %v", keys(byName))
	}
	if conv1.Kernel != "ipe-compiled" {
		t.Errorf("conv1 kernel = %q, want ipe-compiled (forced IPE plan)", conv1.Kernel)
	}
	if conv1.Latency.Count != wantPerLayer {
		t.Errorf("conv1 executions = %d, want %d", conv1.Latency.Count, wantPerLayer)
	}
	if want := float64(runs+1+2*2) / wantPerLayer; conv1.MeanBatch != want || conv1.MaxBatch != 2 {
		t.Errorf("conv1 mean/max batch = %v/%d, want %v/2", conv1.MeanBatch, conv1.MaxBatch, want)
	}
	if conv1.Latency.MeanNs <= 0 || conv1.Latency.MaxNs < conv1.Latency.MinNs {
		t.Errorf("conv1 latency malformed: %+v", conv1.Latency)
	}
	if pool1, ok := byName["lenet5/pool1"]; !ok {
		t.Error("generic layer pool1 missing")
	} else if pool1.Kernel != "generic" {
		t.Errorf("pool1 kernel = %q, want generic", pool1.Kernel)
	}

	if s.Kernels["ipe-compiled"] == 0 {
		t.Errorf("global kernel dispatches missing ipe-compiled: %v", s.Kernels)
	}
	if s.Kernels["im2col"] == 0 {
		t.Errorf("global kernel dispatches missing im2col (IPE conv lowers): %v", s.Kernels)
	}

	ex := s.Exec
	if ex.Runs != wantPerLayer {
		t.Errorf("exec runs = %d, want %d", ex.Runs, wantPerLayer)
	}
	// 3 Plan.Run + 1 explicit acquire + 2 RunBatch workers.
	if ex.Acquires != 6 || ex.Releases != 6 {
		t.Errorf("acquires/releases = %d/%d, want 6/6", ex.Acquires, ex.Releases)
	}
	if ex.Builds == 0 || ex.Builds+ex.PoolReuses != ex.Acquires {
		t.Errorf("builds %d + reuses %d != acquires %d", ex.Builds, ex.PoolReuses, ex.Acquires)
	}
	// Every executor built here ran a 2-item RunBatch run last, which grew
	// its arena to twice the plan's; the gauges track what executors hold.
	if ex.ArenaBytesResident != ex.Builds*2*plan.ArenaBytes {
		t.Errorf("arena bytes = %d, want builds %d x 2 x %d", ex.ArenaBytesResident, ex.Builds, plan.ArenaBytes)
	}
	if ex.ArenaBytesPeak != 2*plan.ArenaBytes {
		t.Errorf("arena peak = %d, want 2 x %d", ex.ArenaBytesPeak, plan.ArenaBytes)
	}
	if ex.ScratchHighWater <= 0 {
		t.Errorf("scratch high water = %d, want > 0", ex.ScratchHighWater)
	}
	if ex.Batches != 1 || ex.BatchItems != 4 {
		t.Errorf("batches/items = %d/%d, want 1/4", ex.Batches, ex.BatchItems)
	}
	if ex.RunLatency.Count != wantPerLayer {
		t.Errorf("run latency count = %d, want %d", ex.RunLatency.Count, wantPerLayer)
	}

	// The forced 2-shard run entered parallel regions; every block runs
	// somewhere, and the caller always takes the final block.
	if s.Pool.Submitted == 0 || s.Pool.CallerRuns == 0 {
		t.Errorf("pool telemetry empty after sharded run: %+v", s.Pool)
	}
	if s.Pool.Submitted != s.Pool.HelperRuns+s.Pool.InlineFallbacks+s.Pool.CallerRuns {
		t.Errorf("pool accounting inconsistent: %+v", s.Pool)
	}
}

// TestExecutorMetricsDisabled checks the zero-overhead contract's
// functional half: with metrics disabled, executors carry no recorder, no
// series appear anywhere, and runs behave identically.
func TestExecutorMetricsDisabled(t *testing.T) {
	metrics.Disable()
	g := nn.LeNet5(1, 4)
	plan, err := Compile(g, Options{Force: ImplIPE, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := plan.NewExecutor()
	if e.rec != nil {
		t.Fatal("executor resolved a recorder while metrics disabled")
	}
	for _, st := range e.steps {
		if st.stats != nil {
			t.Fatalf("step %s has a layer series while disabled", st.op.Node.Name)
		}
	}
	in := tensor.New(1, 1, 28, 28)
	tensor.FillGaussian(in, tensor.NewRNG(3), 1)
	if _, err := e.Run(in); err != nil {
		t.Fatal(err)
	}
	if s := metrics.Capture(); len(s.Layers) != 0 || s.Exec.Runs != 0 {
		t.Errorf("disabled capture not empty: %+v", s)
	}
}

func keys(m map[string]metrics.LayerSnapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
