package metrics

import (
	"strings"
	"sync/atomic"
)

// SetSharedDict overwrites the recorder's shared-dictionary gauges, which
// ipe.DictStore publishes on every intern and release. Nil-safe like every
// recording method.
func (r *Recorder) SetSharedDict(s SharedDictSnapshot) {
	if r == nil {
		return
	}
	r.sharedDict.Store(&s)
}

// Model returns the named model-registry series, creating it on first use.
// Registration is the cold path (model load/swap); the handle publishes
// with atomics only. The registry keeps one series per model name across
// version swaps, so the row shows the currently served version.
func (r *Recorder) Model(name string) *ModelStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.mdByName[name]; ok {
		return s
	}
	s := &ModelStats{name: name}
	r.mdByName[name] = s
	r.mdOrdered = append(r.mdOrdered, s)
	return s
}

// ModelStats is one registered model's published registry state: the
// version currently serving, how many hot-swaps have completed, and the
// resident-byte estimate of its live plan (after shared-dictionary dedup).
// The registry overwrites the gauges on every load and release. All
// methods are atomic and nil-safe.
type ModelStats struct {
	name string

	Version       atomic.Int64
	Swaps         atomic.Int64
	ResidentBytes atomic.Int64
	SharedBytes   atomic.Int64
	PoolExecutors atomic.Int64
}

// Name returns the series' registration name.
func (s *ModelStats) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Publish overwrites the model's registry gauges: the serving version, the
// completed swap count, the plan's resident bytes (resident = this model's
// attributable share after interning; shared = bytes aliased to programs
// another model also holds), and the warm executor pool size.
func (s *ModelStats) Publish(version, swaps, residentBytes, sharedBytes, poolExecutors int64) {
	if s == nil {
		return
	}
	s.Version.Store(version)
	s.Swaps.Store(swaps)
	s.ResidentBytes.Store(residentBytes)
	s.SharedBytes.Store(sharedBytes)
	s.PoolExecutors.Store(poolExecutors)
}

// ModelSnapshot is the point-in-time view of one registered model.
type ModelSnapshot struct {
	Name          string `json:"name"`
	Version       int64  `json:"version"`
	Swaps         int64  `json:"swaps"`
	ResidentBytes int64  `json:"resident_bytes"`
	SharedBytes   int64  `json:"shared_bytes,omitempty"`
	PoolExecutors int64  `json:"pool_executors"`
}

// Snapshot captures one model series.
func (s *ModelStats) Snapshot() ModelSnapshot {
	var snap ModelSnapshot
	if s == nil {
		return snap
	}
	snap.Name = s.name
	snap.Version = s.Version.Load()
	snap.Swaps = s.Swaps.Load()
	snap.ResidentBytes = s.ResidentBytes.Load()
	snap.SharedBytes = s.SharedBytes.Load()
	snap.PoolExecutors = s.PoolExecutors.Load()
	return snap
}

// SharedDictSnapshot is a point-in-time view of what the shared dictionary
// store (ipe.DictStore) deduplicated.
type SharedDictSnapshot struct {
	// Lookups counts interns and ProgramHits those that returned an
	// existing canonical program; both only grow. DictHits is always 0:
	// the store no longer shares a pair dictionary apart from its program.
	// It and its dict_hits key stay because the benchmark harness
	// (benchmark/traced.go) reads them.
	Lookups     int64 `json:"lookups"`
	ProgramHits int64 `json:"program_hits"`
	DictHits    int64 `json:"dict_hits"`
	// UniquePrograms/UniqueBytes measure the canonical set actually
	// resident; SavedBytes estimates the heap the duplicates currently
	// referencing it would have kept alive without interning. All three
	// fall as references are released.
	UniquePrograms int64 `json:"unique_programs"`
	UniqueBytes    int64 `json:"unique_bytes"`
	SavedBytes     int64 `json:"saved_bytes"`
}

// FilterModel returns a copy of the snapshot restricted to one model's
// series: its endpoint and registry rows (exact name match) and its layer
// rows (name prefixed "model/" or "model@", the two
// MetricsPrefix conventions of obs.Meter and the versioned registry).
// Process-wide series (kernels, pool, executor, shared dict) are kept as-is
// since they cannot be attributed per model.
func (s Snapshot) FilterModel(model string) Snapshot {
	owns := func(name string) bool {
		return name == model ||
			strings.HasPrefix(name, model+"/") ||
			strings.HasPrefix(name, model+"@")
	}
	out := s
	out.Layers = nil
	for _, l := range s.Layers {
		if owns(l.Name) {
			out.Layers = append(out.Layers, l)
		}
	}
	out.Endpoints = nil
	for _, e := range s.Endpoints {
		if owns(e.Name) {
			out.Endpoints = append(out.Endpoints, e)
		}
	}
	out.Models = nil
	for _, m := range s.Models {
		if owns(m.Name) {
			out.Models = append(out.Models, m)
		}
	}
	return out
}
