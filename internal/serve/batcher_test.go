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

// waitFor polls cond until it holds. The 10 s limit is a hang guard, not a
// timing threshold: every condition it waits on is an event the batcher
// must eventually reach.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// stalledBatcher builds a batcher whose first flush parks in the flush hook
// until the returned release is called, holding its flight slot.
func stalledBatcher(t *testing.T, plan *runtime.Plan, cfg Config) (b *Batcher, entered <-chan struct{}, release func()) {
	t.Helper()
	b = NewBatcher("m", plan, cfg)
	in := make(chan struct{}, 1)
	gate := make(chan struct{})
	var first sync.Once
	b.flushHook = func() {
		first.Do(func() {
			in <- struct{}{}
			<-gate
		})
	}
	var once sync.Once
	return b, in, func() { once.Do(func() { close(gate) }) }
}

// admitAll admits one single-item request per seed and returns them in
// order; each is in the queue (or already gathered) when admitAll returns.
func admitAll(t *testing.T, b *Batcher, seeds ...uint64) []*request {
	t.Helper()
	reqs := make([]*request, len(seeds))
	for i, seed := range seeds {
		r, err := b.admit(testInput(seed, 1))
		if err != nil {
			t.Fatalf("admit seed %d: %v", seed, err)
		}
		reqs[i] = r
	}
	return reqs
}

// checkResults waits for every request's result and compares it with a
// direct run of the same input.
func checkResults(t *testing.T, plan *runtime.Plan, reqs []*request, seeds []uint64) {
	t.Helper()
	for i, r := range reqs {
		res := <-r.resp
		if res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
		sameData(t, res.out, expect(t, plan, testInput(seeds[i], 1)))
	}
}

// TestBatcherSingleRequestDeadlineFlush submits one request to an idle
// batcher with room for 64 chunks: a free flight slot flushes it at once,
// alone, with no deadline to wait out, and the result must match a direct
// run.
func TestBatcherSingleRequestDeadlineFlush(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 64})
	defer b.Close()

	in := testInput(1, 1)
	type reply struct {
		out *tensor.Tensor
		err error
	}
	done := make(chan reply, 1)
	go func() {
		out, err := b.Submit(in)
		done <- reply{out, err}
	}()
	var got reply
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("an idle batcher held a lone request")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	sameData(t, got.out, expect(t, plan, in))
	ep := rec.Snapshot().Endpoints
	if len(ep) != 1 || ep[0].Flushes != 1 || ep[0].Items != 1 || ep[0].Requests != 1 || ep[0].QueueWait.Count != 1 {
		t.Fatalf("endpoint snapshot = %+v", ep)
	}
}

// TestBatcherZeroSLOImmediateFlush submits three lone requests one after
// another: each finds a free flight slot and must flush alone, so the
// batcher records three flushes of one item with no request held back to
// wait for company.
func TestBatcherZeroSLOImmediateFlush(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 64})
	defer b.Close()

	seeds := []uint64{2, 5, 6}
	for _, seed := range seeds {
		reqs := admitAll(t, b, seed)
		select {
		case res := <-reqs[0].resp:
			if res.err != nil {
				t.Fatal(res.err)
			}
			sameData(t, res.out, expect(t, plan, testInput(seed, 1)))
		case <-time.After(10 * time.Second):
			t.Fatalf("an idle batcher held lone request %d", seed)
		}
	}
	ep := rec.Snapshot().Endpoints
	n := int64(len(seeds))
	if len(ep) != 1 || ep[0].Flushes != n || ep[0].Items != n || ep[0].MaxBatch != 1 {
		t.Fatalf("endpoint snapshot = %+v, want %d flushes of one item", ep, n)
	}
}

// TestBatcherOversizedRequest submits a request bigger than MaxBatch: it
// must be admitted whole and produce the full batched output.
func TestBatcherOversizedRequest(t *testing.T) {
	runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 2})
	defer b.Close()

	in := testInput(3, 7) // 7 chunks > MaxBatch 2
	out, err := b.Submit(in)
	if err != nil {
		t.Fatal(err)
	}
	sameData(t, out, expect(t, plan, in))
}

// TestBatcherCoalesces checks that batches grow while every flight slot is
// busy. The single slot is held by a stalled first flush, and five more
// requests arrive one at a time, each taken off the queue before the next
// is sent — so all but the first arrive after a batch already waits for
// the slot. All five must ride the second flush: exactly two flushes, the
// second carrying five items, each request still getting its own slice of
// the output.
func TestBatcherCoalesces(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b, entered, release := stalledBatcher(t, plan, Config{MaxBatch: 64, MaxInFlight: 1})
	defer b.Close()
	defer release()

	seeds := []uint64{10, 11, 12, 13, 14, 15}
	reqs := admitAll(t, b, seeds[0])
	<-entered
	for _, seed := range seeds[1:] {
		reqs = append(reqs, admitAll(t, b, seed)...)
		waitFor(t, "the gather loop to take a request while the slot is busy",
			func() bool { return len(b.queue) == 0 })
	}
	release()
	checkResults(t, plan, reqs, seeds)

	ep := rec.Snapshot().Endpoints[0]
	if ep.Flushes != 2 || ep.Items != 6 || ep.MaxBatch != 5 {
		t.Fatalf("flushes %d, items %d, max batch %d; want 2 flushes of 1 and 5 items",
			ep.Flushes, ep.Items, ep.MaxBatch)
	}
}

// TestBatcherGrowthStopsAtMaxBatch queues ten single-item requests behind a
// stalled flush with MaxBatch 4: no flush may carry more than four chunks,
// and every item must be flushed exactly once.
func TestBatcherGrowthStopsAtMaxBatch(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b, entered, release := stalledBatcher(t, plan, Config{MaxBatch: 4, MaxInFlight: 1})
	defer b.Close()
	defer release()

	seeds := []uint64{20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30}
	reqs := admitAll(t, b, seeds[0])
	<-entered
	reqs = append(reqs, admitAll(t, b, seeds[1:]...)...)
	release()
	checkResults(t, plan, reqs, seeds)

	ep := rec.Snapshot().Endpoints[0]
	if ep.MaxBatch > 4 {
		t.Fatalf("a flush carried %d chunks, over MaxBatch 4", ep.MaxBatch)
	}
	if ep.Items != int64(len(seeds)) {
		t.Fatalf("flushed %d items, sent %d", ep.Items, len(seeds))
	}
}

// TestBatcherCloseDuringGather closes the batcher while its loop holds a
// gathered batch waiting for the only flight slot: Close must wait for that
// batch, and every admitted request must complete.
func TestBatcherCloseDuringGather(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b, entered, release := stalledBatcher(t, plan, Config{MaxBatch: 64, MaxInFlight: 1})
	defer release()

	seeds := []uint64{40, 41, 42, 43}
	reqs := admitAll(t, b, seeds[0])
	<-entered
	reqs = append(reqs, admitAll(t, b, seeds[1:]...)...)
	waitFor(t, "the gather loop to take the queued requests", func() bool { return len(b.queue) == 0 })

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	waitFor(t, "Close to stop admission", func() bool {
		b.mu.RLock()
		defer b.mu.RUnlock()
		return b.closed
	})
	if _, err := b.Submit(testInput(49, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close began: %v, want ErrClosed", err)
	}
	release()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	checkResults(t, plan, reqs, seeds)
	if ep := rec.Snapshot().Endpoints[0]; ep.Flushes != 2 || ep.Items != 4 {
		t.Fatalf("flushes %d, items %d; want the stalled request then the gathered three", ep.Flushes, ep.Items)
	}
}

// TestBatcherRecordsQueueWait holds the only flight slot for a measured
// stall while three requests queue behind it: each of them must record a
// wait of at least the stall, and the series must count every request.
func TestBatcherRecordsQueueWait(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b, entered, release := stalledBatcher(t, plan, Config{MaxBatch: 64, MaxInFlight: 1})
	defer b.Close()
	defer release()

	seeds := []uint64{60, 61, 62, 63}
	reqs := admitAll(t, b, seeds[0])
	<-entered
	reqs = append(reqs, admitAll(t, b, seeds[1:]...)...)
	stallStart := time.Now()
	time.Sleep(5 * time.Millisecond)
	stall := time.Since(stallStart)
	release()
	checkResults(t, plan, reqs, seeds)

	w := rec.Snapshot().Endpoints[0].QueueWait
	if w.Count != int64(len(seeds)) {
		t.Fatalf("queue wait count %d, sent %d", w.Count, len(seeds))
	}
	queued := int64(len(seeds) - 1)
	if w.MaxNs < stall.Nanoseconds() || w.SumNs < queued*stall.Nanoseconds() {
		t.Fatalf("queue wait %+v under a %v stall of %d queued requests", w, stall, queued)
	}
}

// TestBatcherOverload saturates the single flush slot and the one-deep
// queue: the surplus submission must be rejected with ErrOverloaded and
// counted, and the stalled requests must still complete.
func TestBatcherOverload(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 1, QueueDepth: 1, MaxInFlight: 1})

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
	// First request: flushed at once on the free slot, stalls in the flush
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
	b := NewBatcher("m", plan, Config{MaxBatch: 4, QueueDepth: 256})
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
