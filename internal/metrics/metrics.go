// Package metrics is the runtime observability layer: allocation-free,
// atomic counters and latency histograms threaded through the serving hot
// paths (executor steps, kernel dispatch sites, the intra-op worker pool,
// arena and scratch management).
//
// Recording is off by default and costs one atomic pointer load plus a nil
// check per site (~1 ns) when disabled — cheap enough to leave the hooks in
// every hot path permanently. Enable() installs a process-wide Recorder;
// sites obtain it with Get() (or hold handles resolved at build time) and
// every recording method is safe on a nil receiver, so call sites never
// branch themselves.
//
// The package depends only on the standard library so every layer of the
// system (parallel, tensor, ipe, baseline, graph, runtime) can hook into it
// without import cycles.
package metrics

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Kernel identifies the kernel family that executed a piece of work. The
// values cover every conv/dense execution strategy the runtime dispatches
// plus the generic walker for the remaining operators.
type Kernel uint8

const (
	// KernelUnknown tags work recorded without a kernel attribution.
	KernelUnknown Kernel = iota
	// KernelDirect is the direct (no-lowering) convolution loop nest.
	KernelDirect
	// KernelIm2col is the im2col lowering pass.
	KernelIm2col
	// KernelGEMM is the dense GEMM / fully-connected kernel.
	KernelGEMM
	// KernelWinograd is the Winograd F(2x2,3x3) dense convolution.
	KernelWinograd
	// KernelCSR tags the layers that run compressed-sparse-row execution
	// over quantized weights, and KernelFactorized those that run
	// UCNN-style value-factorized execution. Both forms are programs with
	// an empty pair dictionary on the compiled IPE executor, so their
	// dispatches count as KernelIPECompiled.
	KernelCSR
	KernelFactorized
	// KernelIPEInterp is the interpreted index-pair-encoded executor.
	KernelIPEInterp
	// KernelIPECompiled is the compiled (flat-stream) IPE executor.
	KernelIPECompiled
	// KernelGeneric is the generic graph walker (pool, relu, softmax, ...).
	KernelGeneric

	// KernelCount is the number of kernel tags (array sizing).
	KernelCount
)

var kernelNames = [KernelCount]string{
	"unknown", "direct", "im2col", "gemm", "winograd",
	"csr", "factorized", "ipe-interpreted", "ipe-compiled", "generic",
}

// String returns the kernel's short name (stable: used in JSON dumps).
func (k Kernel) String() string {
	if int(k) < len(kernelNames) {
		return kernelNames[k]
	}
	return "invalid"
}

// Recorder aggregates every metric family. All recording methods are safe
// for concurrent use and for nil receivers (a nil Recorder records
// nothing), so sites can hold a possibly-nil handle and call through it
// unconditionally.
type Recorder struct {
	// Pool is the intra-op worker-pool telemetry (wired into
	// parallel.Pool.SetStats by runtime.EnableMetrics).
	Pool PoolStats
	// Exec is the executor/arena telemetry.
	Exec ExecStats

	kernels [KernelCount]atomic.Int64

	mu      sync.Mutex
	byName  map[string]*LayerStats
	ordered []*LayerStats

	epByName  map[string]*EndpointStats
	epOrdered []*EndpointStats

	mdByName  map[string]*ModelStats
	mdOrdered []*ModelStats

	// sharedDict holds the latest shared-dictionary gauge set published by
	// ipe.DictStore (nil until a store publishes).
	sharedDict atomic.Pointer[SharedDictSnapshot]
}

// New builds an empty Recorder. Most callers use Enable instead, which
// installs the recorder process-wide.
func New() *Recorder {
	return &Recorder{
		byName:   make(map[string]*LayerStats),
		epByName: make(map[string]*EndpointStats),
		mdByName: make(map[string]*ModelStats),
	}
}

// global holds the process-wide recorder; nil means recording is disabled.
var global atomic.Pointer[Recorder]

// Enable installs a fresh process-wide Recorder and returns it. Sites that
// resolved Get() == nil earlier (e.g. executors built before Enable) keep
// recording nothing; enable metrics before building plans and executors.
func Enable() *Recorder {
	r := New()
	global.Store(r)
	return r
}

// Disable removes the process-wide recorder; subsequent Get calls return
// nil and every site falls back to its ~1 ns disabled path.
func Disable() { global.Store(nil) }

// Get returns the process-wide recorder, or nil when recording is
// disabled. The cost is one atomic pointer load.
func Get() *Recorder { return global.Load() }

// Count bumps the process-wide dispatch counter for kernel k. This is the
// package-level convenience used by kernel entry points; it is the
// disabled-path benchmark's subject: one atomic load, one branch.
func Count(k Kernel) {
	if r := global.Load(); r != nil {
		r.CountKernel(k)
	}
}

// CountKernel bumps the recorder's dispatch counter for kernel k.
func (r *Recorder) CountKernel(k Kernel) {
	if r == nil {
		return
	}
	r.kernels[k].Add(1)
}

// Layer returns the named per-layer series, creating it on first use.
// Registration takes a mutex (cold path: executor construction); the
// returned handle records with atomics only. Executors of the same plan
// share series by name, so pooled executors aggregate into one row.
func (r *Recorder) Layer(name string) *LayerStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if l, ok := r.byName[name]; ok {
		return l
	}
	l := &LayerStats{name: name}
	r.byName[name] = l
	r.ordered = append(r.ordered, l)
	return l
}

// Endpoint returns the named serving-endpoint series, creating it on first
// use. Registration is the cold path (batcher construction); the returned
// handle records with atomics only, so the serving hot path captures it once
// and never resolves the recorder again (one request's series can therefore
// never split across an Enable/Disable swap).
func (r *Recorder) Endpoint(name string) *EndpointStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.epByName[name]; ok {
		return s
	}
	s := &EndpointStats{name: name}
	r.epByName[name] = s
	r.epOrdered = append(r.epOrdered, s)
	return s
}

// DropPrefix removes every layer series whose name starts with prefix — a
// retired model version's "model@vN/" — and returns how many went, so the
// series count tracks the versions alive rather than every version ever
// loaded. Endpoint and model series are never dropped: they are keyed by
// the bare model name and stay continuous across versions. A handle
// resolved before the drop keeps recording into a series no snapshot shows
// any more. An empty prefix drops nothing.
func (r *Recorder) DropPrefix(prefix string) int {
	if r == nil || prefix == "" {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	r.ordered = slices.DeleteFunc(r.ordered, func(l *LayerStats) bool {
		if !strings.HasPrefix(l.name, prefix) {
			return false
		}
		delete(r.byName, l.name)
		n++
		return true
	})
	return n
}

// EndpointStats aggregates one serving endpoint's traffic: completed and
// rejected requests, dispatched batches and the chunk counts they coalesced,
// queue-depth extents, and the end-to-end latency and queue-wait histograms.
// The QPS window runs from the first to the last completed request. All
// methods are atomic and nil-safe, so the serving path holds a possibly-nil
// handle and records unconditionally.
type EndpointStats struct {
	name string

	// Requests counts completed (successful) requests; Errors counts
	// requests that reached execution and failed there.
	Requests atomic.Int64
	Errors   atomic.Int64
	// RejectedOverload counts admissions refused because the bounded queue
	// was full (HTTP 429); RejectedClosed counts submissions after shutdown
	// began (HTTP 503).
	RejectedOverload atomic.Int64
	RejectedClosed   atomic.Int64
	// Flushes counts dispatched batches; Items counts the compiled-batch
	// chunks those flushes carried (Items/Flushes = mean coalesced batch).
	Flushes atomic.Int64
	Items   atomic.Int64

	batchMax atomic.Int64
	queueMax atomic.Int64
	firstNs  atomic.Int64 // unix nanos of the first completed request (0 = none)
	lastNs   atomic.Int64

	// Lat is the end-to-end request latency (submit to result, including
	// queueing and coalescing wait).
	Lat Hist
	// QueueWait is each request's wait from admission to the start of the
	// flush that carries it: queueing plus coalescing, before any kernel.
	QueueWait Hist
}

// Name returns the endpoint's registration name.
func (s *EndpointStats) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// RecordRequest logs one completed request: its end-to-end latency and the
// wall-clock completion time in unix nanoseconds (bounds the QPS window).
func (s *EndpointStats) RecordRequest(latNs, nowUnixNs int64) {
	if s == nil {
		return
	}
	s.Requests.Add(1)
	s.Lat.Observe(latNs)
	atomicMinNZ(&s.firstNs, nowUnixNs)
	atomicMax(&s.lastNs, nowUnixNs)
}

// RecordFlush logs one dispatched batch carrying items compiled-batch
// chunks.
func (s *EndpointStats) RecordFlush(items int) {
	if s == nil {
		return
	}
	s.Flushes.Add(1)
	s.Items.Add(int64(items))
	atomicMax(&s.batchMax, int64(items))
}

// RecordQueueWait logs one request's wait from admission to flush start.
func (s *EndpointStats) RecordQueueWait(waitNs int64) {
	if s == nil {
		return
	}
	s.QueueWait.Observe(waitNs)
}

// ObserveQueueDepth raises the queue-depth high-water mark.
func (s *EndpointStats) ObserveQueueDepth(depth int) {
	if s == nil {
		return
	}
	atomicMax(&s.queueMax, int64(depth))
}

// LayerStats aggregates one layer's executions: dispatch counts and total
// latency per kernel family, a latency histogram, and batch-size extents.
// The per-kernel (count, sum-ns) pairs attribute time to the implementation
// that actually ran, which the merged histogram cannot. All methods are
// atomic and nil-safe.
type LayerStats struct {
	name     string
	kernels  [KernelCount]atomic.Int64
	kernelNs [KernelCount]atomic.Int64
	lat      Hist
	batchSum atomic.Int64
	batchMax atomic.Int64
}

// Name returns the layer's registration name.
func (l *LayerStats) Name() string {
	if l == nil {
		return ""
	}
	return l.name
}

// Record logs one execution of the layer: the kernel that ran it, the
// wall-clock nanoseconds it took, and the batch size it processed.
func (l *LayerStats) Record(k Kernel, ns int64, batch int) {
	if l == nil {
		return
	}
	l.kernels[k].Add(1)
	l.kernelNs[k].Add(ns)
	l.lat.Observe(ns)
	l.batchSum.Add(int64(batch))
	atomicMax(&l.batchMax, int64(batch))
}

// PoolStats is the worker-pool telemetry: how many shard blocks were
// submitted, where they ran (helper goroutine, inline because no token was
// free, or on the caller as the always-local final block), how long spawned
// helpers waited to be scheduled, and the token occupancy observed at each
// parallel-region entry.
type PoolStats struct {
	HelperRuns      atomic.Int64 // blocks run on a pool helper goroutine
	InlineFallbacks atomic.Int64 // blocks run inline: no token free
	CallerRuns      atomic.Int64 // final blocks run by the caller (by design)
	SpawnWaitNs     atomic.Int64 // total ns between spawn and helper start
	OccupancySum    atomic.Int64 // sum of tokens-in-use samples
	OccupancyCount  atomic.Int64 // number of occupancy samples (For entries)
	OccupancyMax    atomic.Int64 // max tokens-in-use observed
}

// EnterRegion records one parallel-region entry with the number of pool
// tokens currently in use.
func (p *PoolStats) EnterRegion(tokensInUse int) {
	if p == nil {
		return
	}
	p.OccupancySum.Add(int64(tokensInUse))
	p.OccupancyCount.Add(1)
	atomicMax(&p.OccupancyMax, int64(tokensInUse))
}

// ExecStats is the executor/arena telemetry.
type ExecStats struct {
	Acquires   atomic.Int64 // Plan.AcquireExecutor calls
	PoolReuses atomic.Int64 // acquires served by a pooled (warm) executor
	Builds     atomic.Int64 // executors constructed (arena allocations)
	Releases   atomic.Int64 // Plan.ReleaseExecutor calls
	Runs       atomic.Int64 // Executor.Run calls (one per run, whatever its item count)
	RunErrors  atomic.Int64 // Runs that returned an error
	Batches    atomic.Int64 // Plan.RunBatch calls
	BatchItems atomic.Int64 // compiled-batch chunks across all RunBatch calls

	ArenaBytesResident atomic.Int64 // bytes of activation arenas executors hold (grown by multi-item runs)
	ArenaBytesPeak     atomic.Int64 // largest single executor arena
	ScratchHighWater   atomic.Int64 // max per-shard scratch floats observed

	RunNs Hist // end-to-end Run latency, per run
}

// UpdateArenaPeak raises the single-plan arena high-water mark to bytes if
// it exceeds the recorded maximum.
func (e *ExecStats) UpdateArenaPeak(bytes int64) {
	if e == nil {
		return
	}
	atomicMax(&e.ArenaBytesPeak, bytes)
}

// UpdateScratchHighWater raises the scratch high-water mark to floats if it
// exceeds the recorded maximum.
func (e *ExecStats) UpdateScratchHighWater(floats int) {
	if e == nil {
		return
	}
	atomicMax(&e.ScratchHighWater, int64(floats))
}

// atomicMax raises *a to v if v is larger.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur >= v {
			return
		}
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// atomicMinNZ lowers *a to v, treating 0 as "unset".
func atomicMinNZ(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur != 0 && cur <= v {
			return
		}
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}
