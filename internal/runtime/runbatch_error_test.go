package runtime

import (
	"errors"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// errPlan compiles a tiny conv→flatten→dense model with a compiled batch of
// 1, so RunBatch chunk counts equal the input batch size.
func errPlan(t *testing.T) *Plan {
	t.Helper()
	g := graph.New("runbatch-errors", 1, 1, 4, 4)
	spec := tensor.ConvSpec{InC: 1, OutC: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, tensor.NewRNG(21), 0.5)
	x := g.Conv(g.In, "c", spec, w, nil)
	x = g.Flatten(x, "f")
	fc := tensor.New(3, 2*4*4)
	tensor.FillGaussian(fc, tensor.NewRNG(22), 0.1)
	g.SetOutput(g.Dense(x, "fc", fc, nil))
	plan, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// setChunkHook installs a per-run failure injector for the duration of the
// test (the hook is the only way to make a post-validation run fail). When
// starts is non-nil it collects the first chunk index of every run the
// hook saw.
func setChunkHook(t *testing.T, h func(int) error, starts *[]int) {
	t.Helper()
	var mu sync.Mutex
	runBatchChunkHook = func(chunk int) error {
		if starts != nil {
			mu.Lock()
			*starts = append(*starts, chunk)
			mu.Unlock()
		}
		if h == nil {
			return nil
		}
		return h(chunk)
	}
	t.Cleanup(func() { runBatchChunkHook = nil })
}

// TestRunBatchReturnsLowestIndexError fails two runs that are certainly
// both executing — with 8 items on 8 workers every run is one chunk, and
// each failing hook waits until the other has been entered — and checks the
// returned error is the lowest-index failure, wrapped with its chunk index,
// however the two workers are scheduled.
func TestRunBatchReturnsLowestIndexError(t *testing.T) {
	plan := errPlan(t)
	errLow := errors.New("low boom")
	errHigh := errors.New("high boom")
	var bothEntered sync.WaitGroup
	bothEntered.Add(2)
	setChunkHook(t, func(chunk int) error {
		switch chunk {
		case 2, 5:
			bothEntered.Done()
			bothEntered.Wait()
			if chunk == 2 {
				return errLow
			}
			return errHigh
		}
		return nil
	}, nil)
	in := tensor.New(8, 1, 4, 4)
	tensor.FillGaussian(in, tensor.NewRNG(31), 1)
	// workers=8: every chunk is its own run, so chunk 5's run starts while
	// chunk 2's hook waits; the lowest index must still win.
	_, err := plan.RunBatch(in, 8)
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, errLow) {
		t.Fatalf("error %v, want the lowest-index chunk error %v", err, errLow)
	}
	if !strings.Contains(err.Error(), "chunk 2") {
		t.Fatalf("error %q does not name the failing chunk", err)
	}
}

// TestRunBatchFailedRunReleasesExecutors fails one of two runs and checks
// the failure is whole: the error names the run's first chunk, no partial
// result comes back, every executor checked out goes back to the pool, and
// the next batch on the same pool is bit-identical to single runs.
func TestRunBatchFailedRunReleasesExecutors(t *testing.T) {
	rec := EnableMetrics()
	defer DisableMetrics()
	plan := errPlan(t)
	boom := errors.New("boom")
	var starts []int
	setChunkHook(t, func(chunk int) error {
		if chunk == 4 {
			return boom
		}
		return nil
	}, &starts)
	in := tensor.New(8, 1, 4, 4)
	tensor.FillGaussian(in, tensor.NewRNG(32), 1)
	out, err := plan.RunBatch(in, 2)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "chunk 4") {
		t.Fatalf("error = %v, want %v naming chunk 4", err, boom)
	}
	if out != nil {
		t.Fatal("a failed batch returned a partial result")
	}
	sort.Ints(starts)
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 4 {
		t.Fatalf("runs started at chunks %v, want [0 4]", starts)
	}
	if s := rec.Snapshot().Exec; s.Acquires != 2 || s.Releases != 2 {
		t.Fatalf("acquires/releases = %d/%d, want 2/2", s.Acquires, s.Releases)
	}
	if got := plan.PooledExecutors(); got == 0 {
		t.Fatal("no executor went back to the pool")
	}

	runBatchChunkHook = nil
	out, err = plan.RunBatch(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	expectChunksMatchRuns(t, plan, in, out, 8)
}

// TestRunBatchSuccessDispatchesAll is the control: without failures every
// worker runs its contiguous chunk range once and the result matches
// chunk-by-chunk Run.
func TestRunBatchSuccessDispatchesAll(t *testing.T) {
	plan := errPlan(t)
	var starts []int
	setChunkHook(t, nil, &starts)
	in := tensor.New(6, 1, 4, 4)
	tensor.FillGaussian(in, tensor.NewRNG(33), 1)
	out, err := plan.RunBatch(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(starts)
	if len(starts) != 3 || starts[0] != 0 || starts[1] != 2 || starts[2] != 4 {
		t.Fatalf("runs started at chunks %v, want [0 2 4]", starts)
	}
	expectChunksMatchRuns(t, plan, in, out, 6)
}

// expectChunksMatchRuns checks that each of a batch's chunks equals a
// single Plan.Run of that chunk, bit for bit.
func expectChunksMatchRuns(t *testing.T, plan *Plan, in, out *tensor.Tensor, chunks int) {
	t.Helper()
	per := in.NumElements() / chunks
	outPer := out.NumElements() / chunks
	shape := plan.Graph.In.OutShape
	for i := 0; i < chunks; i++ {
		chunk := tensor.From(in.Data()[i*per:(i+1)*per], shape...)
		want, err := plan.Run(chunk)
		if err != nil {
			t.Fatal(err)
		}
		got := out.Data()[i*outPer : (i+1)*outPer]
		for j, w := range want.Data() {
			if math.Float32bits(got[j]) != math.Float32bits(w) {
				t.Fatalf("chunk %d element %d: got %v want %v", i, j, got[j], w)
			}
		}
	}
}

// TestRunBatchRecorderCapturedOnce swaps the process-wide recorder while
// RunBatch requests are in flight and checks that every retired recorder
// kept its executor checkout accounting paired (Acquires == Releases) and
// its batch accounting whole (BatchItems == Batches × chunks). Before the
// capture-once fix, AcquireExecutor and ReleaseExecutor resolved the global
// recorder independently, so a mid-request Enable() could land the two
// sides on different recorders. Run under -race (make verify does) this is
// also the data-race gate for the swap path.
func TestRunBatchRecorderCapturedOnce(t *testing.T) {
	plan := errPlan(t)
	const chunks = 4
	in := tensor.New(chunks, 1, 4, 4)
	tensor.FillGaussian(in, tensor.NewRNG(34), 1)

	recs := []*metrics.Recorder{EnableMetrics()}
	defer DisableMetrics()
	var mu sync.Mutex
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		// Bounded swap count: plenty of interleavings without retaining an
		// unbounded recorder list on a slow box.
		for i := 0; i < 5000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := EnableMetrics()
			mu.Lock()
			recs = append(recs, r)
			mu.Unlock()
		}
	}()

	const calls = 50
	var runners sync.WaitGroup
	for w := 0; w < 4; w++ {
		runners.Add(1)
		go func() {
			defer runners.Done()
			for i := 0; i < calls; i++ {
				if _, err := plan.RunBatch(in, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	runners.Wait()
	close(stop)
	swapper.Wait()

	mu.Lock()
	defer mu.Unlock()
	var batches, items int64
	for i, r := range recs {
		s := r.Snapshot().Exec
		if s.Acquires != s.Releases {
			t.Errorf("recorder %d: acquires %d != releases %d (request split across recorders)",
				i, s.Acquires, s.Releases)
		}
		if s.BatchItems != s.Batches*chunks {
			t.Errorf("recorder %d: batch items %d != batches %d x %d",
				i, s.BatchItems, s.Batches, chunks)
		}
		batches += s.Batches
		items += s.BatchItems
	}
	if want := int64(4 * calls); batches != want || items != want*chunks {
		t.Errorf("totals: batches %d items %d, want %d and %d", batches, items, want, want*chunks)
	}
}
