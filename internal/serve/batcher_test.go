package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// testPlan compiles a tiny conv→flatten→dense model with a compiled batch
// of 1, so request items equal RunBatch chunks.
func testPlan(t *testing.T) *runtime.Plan {
	t.Helper()
	g := graph.New("serve-test", 1, 1, 4, 4)
	spec := tensor.ConvSpec{InC: 1, OutC: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, tensor.NewRNG(41), 0.5)
	x := g.Conv(g.In, "c", spec, w, nil)
	x = g.Flatten(x, "f")
	fc := tensor.New(3, 2*4*4)
	tensor.FillGaussian(fc, tensor.NewRNG(42), 0.1)
	g.SetOutput(g.Dense(x, "fc", fc, nil))
	plan, err := runtime.Compile(g, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func testInput(seed uint64, items int) *tensor.Tensor {
	in := tensor.New(items, 1, 4, 4)
	tensor.FillGaussian(in, tensor.NewRNG(seed), 1)
	return in
}

// expect runs the plan directly (no batcher) for a reference output.
func expect(t *testing.T, plan *runtime.Plan, in *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	out, err := plan.RunBatch(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameData(t *testing.T, got, want *tensor.Tensor) {
	t.Helper()
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("shape %v, want %v", got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if gd[i] != wd[i] {
			t.Fatalf("element %d: got %v want %v", i, gd[i], wd[i])
		}
	}
}

// TestBatcherSingleRequestDeadlineFlush submits one request with a large
// MaxBatch: only the SLO deadline can flush it, and the result must match
// a direct run.
func TestBatcherSingleRequestDeadlineFlush(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 64, SLO: 20 * time.Millisecond})
	defer b.Close()

	in := testInput(1, 1)
	start := time.Now()
	out, err := b.Submit(in)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("flushed after %v, before the %v SLO deadline", waited, 20*time.Millisecond)
	}
	sameData(t, out, expect(t, plan, in))
	ep := rec.Snapshot().Endpoints
	if len(ep) != 1 || ep[0].Flushes != 1 || ep[0].Items != 1 || ep[0].Requests != 1 {
		t.Fatalf("endpoint snapshot = %+v", ep)
	}
}

// TestBatcherZeroSLOImmediateFlush submits with SLO 0: the request must
// not wait out any deadline.
func TestBatcherZeroSLOImmediateFlush(t *testing.T) {
	runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 64, SLO: 0})
	defer b.Close()

	in := testInput(2, 1)
	start := time.Now()
	out, err := b.Submit(in)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("SLO-0 submit took %v", waited)
	}
	sameData(t, out, expect(t, plan, in))
}

// TestBatcherOversizedRequest submits a request bigger than MaxBatch: it
// must be admitted whole and produce the full batched output.
func TestBatcherOversizedRequest(t *testing.T) {
	runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 2, SLO: time.Millisecond})
	defer b.Close()

	in := testInput(3, 7) // 7 chunks > MaxBatch 2
	out, err := b.Submit(in)
	if err != nil {
		t.Fatal(err)
	}
	sameData(t, out, expect(t, plan, in))
}

// TestBatcherCoalesces stalls the flush path, queues several requests, and
// checks they ride one RunBatch call (mean batch > 1) with each request
// still getting its own correct slice of the output.
func TestBatcherCoalesces(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 64, SLO: 5 * time.Millisecond, MaxInFlight: 1})

	// First flush blocks until released, so the next submissions pile up
	// and coalesce into the second flush.
	release := make(chan struct{})
	var gate sync.Once
	b.flushHook = func() { gate.Do(func() { <-release }) }

	results := make([]*tensor.Tensor, 5)
	errs := make([]error, 5)
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = b.Submit(testInput(uint64(10+i), 1))
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let all five enqueue / first flush stall
	close(release)
	wg.Wait()
	b.Close()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		sameData(t, results[i], expect(t, plan, testInput(uint64(10+i), 1)))
	}
	ep := rec.Snapshot().Endpoints[0]
	if ep.Requests != 5 {
		t.Fatalf("requests = %d", ep.Requests)
	}
	if ep.Flushes >= 5 || ep.MeanBatch <= 1 {
		t.Fatalf("no coalescing: flushes %d, mean batch %v", ep.Flushes, ep.MeanBatch)
	}
}

// TestBatcherOverload saturates the single flush slot and the one-deep
// queue: the surplus submission must be rejected with ErrOverloaded and
// counted, and the stalled requests must still complete.
func TestBatcherOverload(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 1, SLO: 0, QueueDepth: 1, MaxInFlight: 1})

	entered := make(chan struct{}, 256)
	release := make(chan struct{})
	b.flushHook = func() { entered <- struct{}{}; <-release }

	var wg sync.WaitGroup
	submit := func(seed uint64) chan error {
		ch := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := b.Submit(testInput(seed, 1))
			ch <- err
		}()
		return ch
	}
	// First request: gathered immediately (SLO 0), stalls in the flush
	// hook holding the only flight token.
	pending := []chan error{submit(1)}
	<-entered

	// Keep pushing: the loop gathers at most one more request and blocks on
	// the flight token, one more sits in the queue, and everything beyond
	// that is rejected at admission. Requests that don't come back within
	// the poll window are admitted-and-stalled.
	var overloaded bool
	for i := 0; i < 100 && !overloaded; i++ {
		ch := submit(uint64(100 + i))
		select {
		case err := <-ch:
			if errors.Is(err, ErrOverloaded) {
				overloaded = true
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			} else {
				t.Fatal("request completed while the flush slot was stalled")
			}
		case <-time.After(10 * time.Millisecond):
			pending = append(pending, ch)
		}
	}
	if !overloaded {
		t.Fatal("no submission was rejected with ErrOverloaded")
	}
	close(release)
	wg.Wait()
	b.Close()
	if got := rec.Snapshot().Endpoints[0].RejectedOverload; got == 0 {
		t.Fatal("overload rejection not counted")
	}
	// The stalled request behind the hook completed, and nothing was
	// silently dropped: every pending channel settled with success or — for
	// submissions whose rejection outran the poll window — ErrOverloaded.
	if err := <-pending[0]; err != nil {
		t.Fatalf("stalled request: %v", err)
	}
	for i, ch := range pending[1:] {
		if err := <-ch; err != nil && !errors.Is(err, ErrOverloaded) {
			t.Fatalf("pending request %d: %v", i, err)
		}
	}
}

// TestBatcherShutdownDrain races many submitters against Close: every
// Submit must return exactly once, either a correct result or ErrClosed —
// no drops, no double completions, and the books must balance.
func TestBatcherShutdownDrain(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 4, SLO: time.Millisecond, QueueDepth: 256})
	// Slow each flush a little so the workload reliably outlives Close.
	b.flushHook = func() { time.Sleep(200 * time.Microsecond) }

	in := testInput(5, 1)
	want := expect(t, plan, in)
	const submitters = 32
	const perSubmitter = 20
	var completed, closed, other atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				out, err := b.Submit(in)
				switch {
				case err == nil:
					sameData(t, out, want)
					completed.Add(1)
				case errors.Is(err, ErrClosed):
					closed.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	// Close mid-flight: once a quarter of the submissions completed, shut
	// down while the rest are still being submitted.
	for completed.Load() < submitters*perSubmitter/4 {
		time.Sleep(100 * time.Microsecond)
	}
	b.Close()
	wg.Wait()

	total := completed.Load() + closed.Load() + other.Load()
	if total != submitters*perSubmitter {
		t.Fatalf("submissions accounted %d, want %d", total, submitters*perSubmitter)
	}
	if other.Load() != 0 {
		t.Fatalf("%d submissions failed with unexpected errors", other.Load())
	}
	if completed.Load() == 0 || closed.Load() == 0 {
		t.Fatalf("race did not exercise both outcomes: completed %d closed %d",
			completed.Load(), closed.Load())
	}
	ep := rec.Snapshot().Endpoints[0]
	if ep.Requests != completed.Load() {
		t.Fatalf("endpoint recorded %d requests, clients saw %d complete", ep.Requests, completed.Load())
	}
	if ep.Items != completed.Load() {
		t.Fatalf("endpoint items %d != completed %d (dropped or double-flushed work)", ep.Items, completed.Load())
	}
	if ep.RejectedClosed != closed.Load() {
		t.Fatalf("endpoint rejected-closed %d, clients saw %d", ep.RejectedClosed, closed.Load())
	}
	// Submit after Close stays rejected.
	if _, err := b.Submit(in); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit error = %v, want ErrClosed", err)
	}
}

// TestBatcherValidation rejects malformed inputs before they occupy queue
// space.
func TestBatcherValidation(t *testing.T) {
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{})
	defer b.Close()
	cases := []struct {
		name  string
		shape []int
	}{
		{"rank", []int{4, 16}},
		{"dims", []int{1, 2, 4, 4}},
	}
	for _, tc := range cases {
		if _, err := b.Submit(tensor.New(tc.shape...)); err == nil {
			t.Errorf("%s: malformed input accepted", tc.name)
		}
	}
}
