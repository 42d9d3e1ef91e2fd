package metrics

import (
	"bytes"
	"encoding/json"
	goruntime "runtime"
	"sync"
	"testing"
)

func TestLayerRecordSnapshot(t *testing.T) {
	r := New()
	l := r.Layer("conv1")
	if got := r.Layer("conv1"); got != l {
		t.Fatalf("Layer(conv1) not deduplicated: %p vs %p", got, l)
	}
	l.Record(KernelIPECompiled, 1000, 1)
	l.Record(KernelIPECompiled, 3000, 4)
	l.Record(KernelDirect, 500, 1)
	s := l.Snapshot()
	if s.Name != "conv1" {
		t.Errorf("name = %q", s.Name)
	}
	if s.Kernel != "ipe-compiled" {
		t.Errorf("dominant kernel = %q, want ipe-compiled", s.Kernel)
	}
	if s.Kernels["ipe-compiled"] != 2 || s.Kernels["direct"] != 1 {
		t.Errorf("kernels = %v", s.Kernels)
	}
	if s.Latency.Count != 3 || s.Latency.SumNs != 4500 {
		t.Errorf("latency = %+v", s.Latency)
	}
	if s.Latency.MinNs != 500 || s.Latency.MaxNs != 3000 {
		t.Errorf("min/max = %d/%d", s.Latency.MinNs, s.Latency.MaxNs)
	}
	if s.Latency.MeanNs != 1500 {
		t.Errorf("mean = %d", s.Latency.MeanNs)
	}
	if s.MaxBatch != 4 || s.MeanBatch != 2 {
		t.Errorf("batch mean/max = %v/%d", s.MeanBatch, s.MaxBatch)
	}
	if s.Latency.P50Ns < s.Latency.MinNs || s.Latency.P50Ns > s.Latency.MaxNs ||
		s.Latency.P99Ns < s.Latency.P50Ns {
		t.Errorf("quantiles out of order: %+v", s.Latency)
	}
}

func TestHistQuantilesBounds(t *testing.T) {
	var h Hist
	for i := 0; i < 100; i++ {
		h.Observe(100) // all in bucket [64,128)
	}
	h.Observe(1 << 20)
	s := h.Snapshot()
	if s.Count != 101 {
		t.Fatalf("count = %d", s.Count)
	}
	// p50 must land in the 100ns bucket (upper bound 128), p99+ may reach
	// the outlier but never exceed the observed max.
	if s.P50Ns > 128 {
		t.Errorf("p50 = %d, want <= 128", s.P50Ns)
	}
	if s.P99Ns > s.MaxNs {
		t.Errorf("p99 %d > max %d", s.P99Ns, s.MaxNs)
	}
	// Sub-nanosecond observations clamp rather than corrupt the buckets.
	h.Observe(0)
	if got := h.Snapshot().MinNs; got != 1 {
		t.Errorf("min after Observe(0) = %d, want 1", got)
	}
}

func TestNilSafety(t *testing.T) {
	Disable()
	if Get() != nil {
		t.Fatal("Get() != nil after Disable")
	}
	Count(KernelGEMM) // must not panic with recording disabled

	var r *Recorder
	r.CountKernel(KernelDirect)
	if l := r.Layer("x"); l != nil {
		t.Errorf("nil recorder Layer = %v", l)
	}
	var l *LayerStats
	l.Record(KernelDirect, 10, 1)
	if l.Name() != "" {
		t.Error("nil LayerStats name")
	}
	var p *PoolStats
	p.EnterRegion(3)
	var e *ExecStats
	e.UpdateScratchHighWater(100)
	var h *Hist
	h.Observe(5)
	if s := r.Snapshot(); len(s.Layers) != 0 {
		t.Errorf("nil recorder snapshot = %+v", s)
	}
}

func TestEnableDisableGlobal(t *testing.T) {
	r := Enable()
	defer Disable()
	if Get() != r {
		t.Fatal("Get() != Enable() result")
	}
	Count(KernelWinograd)
	s := Capture()
	if s.Kernels["winograd"] != 1 {
		t.Errorf("kernel_dispatches = %v", s.Kernels)
	}
	Disable()
	Count(KernelWinograd) // dropped
	if got := r.Snapshot().Kernels["winograd"]; got != 1 {
		t.Errorf("count after disable = %d, want 1", got)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := New()
	r.Layer("fc1").Record(KernelGEMM, 2048, 2)
	r.Pool.EnterRegion(2)
	r.Pool.HelperRuns.Add(3)
	r.Exec.Runs.Add(1)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v\n%s", err, buf.String())
	}
	if len(back.Layers) != 1 || back.Layers[0].Name != "fc1" || back.Layers[0].Kernel != "gemm" {
		t.Errorf("layers = %+v", back.Layers)
	}
	if back.Pool.Submitted != 3 || back.Pool.MaxOccupancy != 2 {
		t.Errorf("pool = %+v", back.Pool)
	}
}

// TestRecorderConcurrent hammers one recorder — one shared layer series,
// the pool stats, and the global kernel counters — from GOMAXPROCS
// goroutines. Run under -race (make verify does) this is the data-race
// gate for every atomic in the package; the count assertions catch lost
// updates.
func TestRecorderConcurrent(t *testing.T) {
	r := Enable()
	defer Disable()
	l := r.Layer("hammered")
	workers := goruntime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.Record(Kernel(1+(w+i)%int(KernelCount-1)), int64(i%4096+1), 1+i%8)
				Count(KernelIPECompiled)
				r.Pool.EnterRegion(i % workers)
				r.Pool.HelperRuns.Add(1)
				r.Exec.RunNs.Observe(int64(i + 1))
				r.Exec.UpdateScratchHighWater(i)
				if i%64 == 0 {
					_ = r.Snapshot() // concurrent reads must be safe too
				}
			}
		}(w)
	}
	wg.Wait()
	total := int64(workers * perWorker)
	s := r.Snapshot()
	if s.Layers[0].Latency.Count != total {
		t.Errorf("layer count = %d, want %d", s.Layers[0].Latency.Count, total)
	}
	var kernelSum int64
	for _, n := range s.Layers[0].Kernels {
		kernelSum += n
	}
	if kernelSum != total {
		t.Errorf("kernel dispatch sum = %d, want %d", kernelSum, total)
	}
	if s.Kernels["ipe-compiled"] != total {
		t.Errorf("global ipe-compiled = %d, want %d", s.Kernels["ipe-compiled"], total)
	}
	if s.Pool.HelperRuns != total || s.Exec.RunLatency.Count != total {
		t.Errorf("pool/exec counts = %d/%d, want %d", s.Pool.HelperRuns, s.Exec.RunLatency.Count, total)
	}
	if s.Exec.ScratchHighWater != perWorker-1 {
		t.Errorf("scratch high water = %d, want %d", s.Exec.ScratchHighWater, perWorker-1)
	}
}

// disabledSite mirrors a real instrumentation site with metrics off: one
// atomic pointer load and a nil check. Kept noinline so the benchmark
// measures the call-site shape the kernels actually pay.
//
//go:noinline
func disabledSite(k Kernel) {
	Count(k)
}

// TestDisabledOverhead asserts the disabled recorder's per-site cost stays
// negligible: the site is one atomic load plus a branch (~1 ns); the bound
// is deliberately loose (25 ns) so slow shared CI runners never flake, while
// still catching an accidental allocation, lock, or map lookup on the
// disabled path (any of which costs well over 25 ns).
func TestDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceEnabled {
		t.Skip("race detector instruments the atomic load (~100x); the timing contract only holds uninstrumented")
	}
	Disable()
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			disabledSite(KernelDirect)
		}
	})
	if res.AllocsPerOp() != 0 {
		t.Fatalf("disabled site allocates: %d allocs/op", res.AllocsPerOp())
	}
	if ns := res.NsPerOp(); ns > 25 {
		t.Errorf("disabled site costs %d ns/op, want ~1 (bound 25)", ns)
	}
}

// BenchmarkDisabledSite is the headline number for the "metrics off costs
// ~1 ns per site" claim.
func BenchmarkDisabledSite(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disabledSite(KernelDirect)
	}
}

// BenchmarkEnabledLayerRecord is the cost with metrics on: a handful of
// atomic adds.
func BenchmarkEnabledLayerRecord(b *testing.B) {
	r := Enable()
	defer Disable()
	l := r.Layer("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Record(KernelGEMM, int64(i&4095)+1, 1)
	}
}

// BenchmarkEnabledCount is the cost of a global kernel-dispatch count with
// metrics on.
func BenchmarkEnabledCount(b *testing.B) {
	Enable()
	defer Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Count(KernelDirect)
	}
}

// TestEndpointRecordSnapshot exercises the serving-endpoint series: request
// and rejection accounting, batch-coalescing evidence (mean batch), queue
// extents, and the QPS window.
func TestEndpointRecordSnapshot(t *testing.T) {
	r := New()
	ep := r.Endpoint("lenet5")
	if r.Endpoint("lenet5") != ep {
		t.Fatal("Endpoint not memoized by name")
	}
	base := int64(1_000_000_000)
	ep.RecordRequest(1000, base)
	ep.RecordRequest(3000, base+2e9) // 3 requests over 4 s -> 0.5 QPS
	ep.RecordRequest(2000, base+4e9)
	ep.RecordFlush(1)
	ep.RecordFlush(2)
	ep.RecordQueueWait(40)
	ep.RecordQueueWait(900)
	ep.ObserveQueueDepth(3)
	ep.ObserveQueueDepth(1)
	ep.RejectedOverload.Add(2)
	ep.RejectedClosed.Add(1)
	ep.Errors.Add(1)

	s := r.Snapshot()
	if len(s.Endpoints) != 1 {
		t.Fatalf("endpoints = %+v", s.Endpoints)
	}
	e := s.Endpoints[0]
	if e.Name != "lenet5" || e.Requests != 3 || e.Errors != 1 {
		t.Errorf("identity/counts = %+v", e)
	}
	if e.RejectedOverload != 2 || e.RejectedClosed != 1 {
		t.Errorf("rejects = %+v", e)
	}
	if e.Flushes != 2 || e.Items != 3 || e.MeanBatch != 1.5 || e.MaxBatch != 2 {
		t.Errorf("batching = %+v", e)
	}
	if e.QueueMax != 3 {
		t.Errorf("queue max = %d", e.QueueMax)
	}
	if e.Latency.Count != 3 || e.Latency.MaxNs != 3000 {
		t.Errorf("latency = %+v", e.Latency)
	}
	if e.QueueWait.Count != 2 || e.QueueWait.SumNs != 940 || e.QueueWait.MaxNs != 900 {
		t.Errorf("queue wait = %+v", e.QueueWait)
	}
	if e.QPS < 0.49 || e.QPS > 0.51 {
		t.Errorf("qps = %v, want 0.5", e.QPS)
	}

	// JSON round trip keeps the endpoint section.
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Endpoints) != 1 || back.Endpoints[0].MeanBatch != 1.5 || back.Endpoints[0].QueueWait.Count != 2 {
		t.Errorf("round-trip endpoints = %+v", back.Endpoints)
	}
}

// TestEndpointNilSafety checks the nil-receiver contract the serving path
// relies on (a batcher built with metrics disabled holds a nil handle).
func TestEndpointNilSafety(t *testing.T) {
	var r *Recorder
	if ep := r.Endpoint("x"); ep != nil {
		t.Fatalf("nil recorder Endpoint = %v", ep)
	}
	var ep *EndpointStats
	ep.RecordRequest(10, 20)
	ep.RecordFlush(4)
	ep.RecordQueueWait(5)
	ep.ObserveQueueDepth(9)
	if ep.Name() != "" {
		t.Error("nil EndpointStats name")
	}
	if snap := ep.Snapshot(); snap.Requests != 0 {
		t.Errorf("nil snapshot = %+v", snap)
	}
}

func TestDropPrefixRemovesOneVersionsSeries(t *testing.T) {
	r := New()
	old := r.Layer("m@v1/conv1")
	r.Layer("m@v1/fc1")
	r.Layer("m@v2/conv1")
	r.Layer("n@v1/conv1")
	r.Endpoint("m")
	r.Model("m")
	if n := r.DropPrefix(""); n != 0 {
		t.Fatalf("empty prefix dropped %d series", n)
	}
	if n := r.DropPrefix("m@v1/"); n != 2 {
		t.Fatalf("DropPrefix dropped %d series, want 2", n)
	}
	snap := r.Snapshot()
	var layers []string
	for _, l := range snap.Layers {
		layers = append(layers, l.Name)
	}
	if len(layers) != 2 || layers[0] != "m@v2/conv1" || layers[1] != "n@v1/conv1" {
		t.Fatalf("layers after drop = %v", layers)
	}
	if len(snap.Endpoints) != 1 || len(snap.Models) != 1 {
		t.Fatalf("endpoints %d / models %d after drop, want 1/1",
			len(snap.Endpoints), len(snap.Models))
	}
	if r.Layer("m@v1/conv1") == old {
		t.Fatal("a dropped name resolved to its detached series")
	}
	var nilRec *Recorder
	if nilRec.DropPrefix("m@v1/") != 0 {
		t.Fatal("nil recorder dropped series")
	}
}
