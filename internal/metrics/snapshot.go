package metrics

import (
	"encoding/json"
	"expvar"
	"io"
)

// LayerSnapshot is the point-in-time view of one layer's series: which
// kernel families executed it (usually exactly one), its latency
// distribution, and the batch sizes it saw. It is the unit the perf JSON
// attaches per layer and the CI regression gate diffs.
type LayerSnapshot struct {
	Name string `json:"name"`
	// Kernel is the dominant (most-dispatched) kernel family.
	Kernel string `json:"kernel"`
	// Kernels maps kernel name -> dispatch count, for layers that ran under
	// more than one implementation.
	Kernels map[string]int64 `json:"kernels,omitempty"`
	// KernelMeanNs maps kernel name -> mean latency over that kernel's own
	// executions of this layer.
	KernelMeanNs map[string]int64 `json:"kernel_mean_ns,omitempty"`
	Latency      HistSnapshot     `json:"latency"`
	// MeanBatch and MaxBatch summarize the batch sizes recorded.
	MeanBatch float64 `json:"mean_batch"`
	MaxBatch  int64   `json:"max_batch"`
}

// EndpointSnapshot is the point-in-time view of one serving endpoint: the
// admission counters, batch-coalescing evidence (MeanBatch > 1 means the
// dynamic batcher merged concurrent requests), queue extents, the
// end-to-end latency and admission-to-flush wait distributions, and the
// mean QPS over the window from the first to the last completed request.
type EndpointSnapshot struct {
	Name             string       `json:"name"`
	Requests         int64        `json:"requests"`
	Errors           int64        `json:"errors,omitempty"`
	RejectedOverload int64        `json:"rejected_overload,omitempty"`
	RejectedClosed   int64        `json:"rejected_closed,omitempty"`
	Flushes          int64        `json:"flushes"`
	Items            int64        `json:"items"`
	MeanBatch        float64      `json:"mean_batch"`
	MaxBatch         int64        `json:"max_batch"`
	QueueMax         int64        `json:"queue_max"`
	QPS              float64      `json:"qps"`
	Latency          HistSnapshot `json:"latency"`
	QueueWait        HistSnapshot `json:"queue_wait"`
}

// PoolSnapshot is the point-in-time view of the worker-pool telemetry.
type PoolSnapshot struct {
	Submitted       int64   `json:"submitted"`
	HelperRuns      int64   `json:"helper_runs"`
	InlineFallbacks int64   `json:"inline_fallbacks"`
	CallerRuns      int64   `json:"caller_runs"`
	SpawnWaitNs     int64   `json:"spawn_wait_ns"`
	MeanSpawnWaitNs int64   `json:"mean_spawn_wait_ns"`
	MeanOccupancy   float64 `json:"mean_occupancy"`
	MaxOccupancy    int64   `json:"max_occupancy"`
}

// ExecSnapshot is the point-in-time view of the executor/arena telemetry.
type ExecSnapshot struct {
	Acquires           int64        `json:"acquires"`
	PoolReuses         int64        `json:"pool_reuses"`
	Builds             int64        `json:"builds"`
	Releases           int64        `json:"releases"`
	Runs               int64        `json:"runs"`
	RunErrors          int64        `json:"run_errors"`
	Batches            int64        `json:"batches"`
	BatchItems         int64        `json:"batch_items"`
	ArenaBytesResident int64        `json:"arena_bytes_resident"`
	ArenaBytesPeak     int64        `json:"arena_bytes_peak"`
	ScratchHighWater   int64        `json:"scratch_high_water_floats"`
	RunLatency         HistSnapshot `json:"run_latency"`
}

// Snapshot is a self-consistent-enough point-in-time view of a Recorder,
// serializable to JSON (the expvar-style dump).
type Snapshot struct {
	Layers []LayerSnapshot `json:"layers"`
	// Endpoints lists the serving-endpoint series (empty unless a serve
	// batcher registered traffic).
	Endpoints []EndpointSnapshot `json:"endpoints,omitempty"`
	// Models lists the versioned-registry series (empty unless a registry
	// published model state).
	Models []ModelSnapshot `json:"models,omitempty"`
	// SharedDict reports the shared-dictionary store's dedup gauges (nil
	// unless an ipe.DictStore published).
	SharedDict *SharedDictSnapshot `json:"shared_dict,omitempty"`
	Kernels    map[string]int64    `json:"kernel_dispatches"`
	Pool       PoolSnapshot        `json:"pool"`
	Exec       ExecSnapshot        `json:"executor"`
}

// Snapshot captures every series of the recorder. Layers appear in
// registration order (the executor registers them in topological order, so
// the dump reads like the forward pass). Nil-safe: a nil recorder yields a
// zero snapshot.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	layers := append([]*LayerStats(nil), r.ordered...)
	endpoints := append([]*EndpointStats(nil), r.epOrdered...)
	models := append([]*ModelStats(nil), r.mdOrdered...)
	r.mu.Unlock()
	s.Layers = make([]LayerSnapshot, 0, len(layers))
	for _, l := range layers {
		s.Layers = append(s.Layers, l.Snapshot())
	}
	for _, ep := range endpoints {
		s.Endpoints = append(s.Endpoints, ep.Snapshot())
	}
	for _, md := range models {
		s.Models = append(s.Models, md.Snapshot())
	}
	if d := r.sharedDict.Load(); d != nil {
		c := *d
		s.SharedDict = &c
	}
	s.Kernels = make(map[string]int64)
	for k := Kernel(0); k < KernelCount; k++ {
		if n := r.kernels[k].Load(); n > 0 {
			s.Kernels[k.String()] = n
		}
	}
	s.Pool = r.Pool.Snapshot()
	s.Exec = r.Exec.Snapshot()
	return s
}

// Capture snapshots the process-wide recorder (zero snapshot if disabled).
func Capture() Snapshot { return Get().Snapshot() }

// Snapshot captures one layer series.
func (l *LayerStats) Snapshot() LayerSnapshot {
	var s LayerSnapshot
	if l == nil {
		return s
	}
	s.Name = l.name
	var domK Kernel
	var domN int64
	for k := Kernel(0); k < KernelCount; k++ {
		n := l.kernels[k].Load()
		if n == 0 {
			continue
		}
		if s.Kernels == nil {
			s.Kernels = make(map[string]int64)
		}
		s.Kernels[k.String()] = n
		if sum := l.kernelNs[k].Load(); sum > 0 {
			if s.KernelMeanNs == nil {
				s.KernelMeanNs = make(map[string]int64)
			}
			s.KernelMeanNs[k.String()] = sum / n
		}
		if n > domN {
			domK, domN = k, n
		}
	}
	s.Kernel = domK.String()
	s.Latency = l.lat.Snapshot()
	s.MaxBatch = l.batchMax.Load()
	if s.Latency.Count > 0 {
		s.MeanBatch = float64(l.batchSum.Load()) / float64(s.Latency.Count)
	}
	return s
}

// Snapshot captures one endpoint series.
func (s *EndpointStats) Snapshot() EndpointSnapshot {
	var snap EndpointSnapshot
	if s == nil {
		return snap
	}
	snap.Name = s.name
	snap.Requests = s.Requests.Load()
	snap.Errors = s.Errors.Load()
	snap.RejectedOverload = s.RejectedOverload.Load()
	snap.RejectedClosed = s.RejectedClosed.Load()
	snap.Flushes = s.Flushes.Load()
	snap.Items = s.Items.Load()
	if snap.Flushes > 0 {
		snap.MeanBatch = float64(snap.Items) / float64(snap.Flushes)
	}
	snap.MaxBatch = s.batchMax.Load()
	snap.QueueMax = s.queueMax.Load()
	snap.Latency = s.Lat.Snapshot()
	snap.QueueWait = s.QueueWait.Snapshot()
	if first, last := s.firstNs.Load(), s.lastNs.Load(); snap.Requests > 1 && last > first {
		snap.QPS = float64(snap.Requests-1) / (float64(last-first) / 1e9)
	}
	return snap
}

// Snapshot captures the pool telemetry.
func (p *PoolStats) Snapshot() PoolSnapshot {
	var s PoolSnapshot
	if p == nil {
		return s
	}
	s.HelperRuns = p.HelperRuns.Load()
	s.InlineFallbacks = p.InlineFallbacks.Load()
	s.CallerRuns = p.CallerRuns.Load()
	s.Submitted = s.HelperRuns + s.InlineFallbacks + s.CallerRuns
	s.SpawnWaitNs = p.SpawnWaitNs.Load()
	if s.HelperRuns > 0 {
		s.MeanSpawnWaitNs = s.SpawnWaitNs / s.HelperRuns
	}
	s.MaxOccupancy = p.OccupancyMax.Load()
	if n := p.OccupancyCount.Load(); n > 0 {
		s.MeanOccupancy = float64(p.OccupancySum.Load()) / float64(n)
	}
	return s
}

// Snapshot captures the executor telemetry.
func (e *ExecStats) Snapshot() ExecSnapshot {
	var s ExecSnapshot
	if e == nil {
		return s
	}
	s.Acquires = e.Acquires.Load()
	s.PoolReuses = e.PoolReuses.Load()
	s.Builds = e.Builds.Load()
	s.Releases = e.Releases.Load()
	s.Runs = e.Runs.Load()
	s.RunErrors = e.RunErrors.Load()
	s.Batches = e.Batches.Load()
	s.BatchItems = e.BatchItems.Load()
	s.ArenaBytesResident = e.ArenaBytesResident.Load()
	s.ArenaBytesPeak = e.ArenaBytesPeak.Load()
	s.ScratchHighWater = e.ScratchHighWater.Load()
	s.RunLatency = e.RunNs.Snapshot()
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Publish registers the process-wide recorder under the given expvar name
// (e.g. "inspire"), so any HTTP server that mounts expvar's /debug/vars
// handler exposes the live snapshot. Publishing twice with the same name
// panics (expvar semantics), so call once at startup.
func Publish(name string) {
	expvar.Publish(name, expvar.Func(func() any { return Capture() }))
}
