package runtime

import (
	"errors"
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

// setChunkHook installs a per-chunk failure injector for the duration of
// the test (the hook is the only way to make a post-validation chunk fail).
func setChunkHook(t *testing.T, h func(int) error, dispatched *int) {
	t.Helper()
	runBatchChunkHook = h
	testRunBatchDispatched = dispatched
	t.Cleanup(func() {
		runBatchChunkHook = nil
		testRunBatchDispatched = nil
	})
}

// TestRunBatchReturnsLowestIndexError fails two chunks that are certainly
// both executing — each failing hook waits until the other has been entered,
// so neither can trip the cancel flag before the other's worker is past its
// cancellation check — and checks the returned error is the lowest-index
// failure, wrapped with its chunk index. (Without the rendezvous chunk 5
// could fail and cancel the batch before chunk 2's worker looked at the
// flag; chunk 2 was then legitimately skipped, and the test failed about
// one run in 130.)
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
	// workers=8: a worker is free for every chunk, so the feeder reaches
	// chunk 5 while chunk 2's hook waits; the lowest index must still win.
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

// TestRunBatchCancelsFeederOnFailure fails the first chunk with a single
// worker and checks the feeder stopped dispatching instead of feeding all
// remaining chunks through the dead batch.
func TestRunBatchCancelsFeederOnFailure(t *testing.T) {
	plan := errPlan(t)
	boom := errors.New("boom")
	var dispatched int
	setChunkHook(t, func(chunk int) error {
		if chunk == 0 {
			return boom
		}
		return nil
	}, &dispatched)
	in := tensor.New(64, 1, 4, 4)
	tensor.FillGaussian(in, tensor.NewRNG(32), 1)
	_, err := plan.RunBatch(in, 1)
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want %v", err, boom)
	}
	// The single worker fails chunk 0 and sets the flag; the feeder may
	// already have handed over a couple more chunks (they drain without
	// executing) but must stop far short of the full batch.
	if dispatched >= 64 {
		t.Fatalf("feeder dispatched all %d chunks after the first failure", dispatched)
	}
}

// TestRunBatchSuccessDispatchesAll is the control: without failures the
// feeder hands every chunk out and the result matches chunk-by-chunk Run.
func TestRunBatchSuccessDispatchesAll(t *testing.T) {
	plan := errPlan(t)
	var dispatched int
	setChunkHook(t, nil, &dispatched)
	in := tensor.New(6, 1, 4, 4)
	tensor.FillGaussian(in, tensor.NewRNG(33), 1)
	out, err := plan.RunBatch(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dispatched != 6 {
		t.Fatalf("dispatched %d chunks, want 6", dispatched)
	}
	per := in.NumElements() / 6
	outPer := out.NumElements() / 6
	for i := 0; i < 6; i++ {
		chunk := tensor.From(in.Data()[i*per:(i+1)*per], 1, 1, 4, 4)
		want, err := plan.Run(chunk)
		if err != nil {
			t.Fatal(err)
		}
		got := out.Data()[i*outPer : (i+1)*outPer]
		for j, w := range want.Data() {
			if got[j] != w {
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
