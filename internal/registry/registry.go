// Package registry is the multi-model, hot-swap model registry behind
// inspire-serve. It holds a versioned entry per model: each version owns a
// compiled runtime.Plan and a dynamic batcher, and an atomic pointer names
// the version receiving traffic. Loading a new version compiles it in the
// background (traffic keeps flowing through the old version), atomically
// redirects new submissions, drains the old batcher, and retires the old
// version — its warm executor pool, the dictionary-store references its
// plan acquired, and its per-version metrics series all go — so memory
// stays flat under swap churn. No request admitted before, during, or after
// the swap is ever dropped.
//
// The zero-drop argument is a three-way handshake with serve.Batcher:
// Predict snapshots the current version and submits to its batcher. Either
// the submission lands before the swap closes that batcher — then Close
// drains it and the request completes on the old version — or it observes
// the closed batcher, gets ErrClosed, notices the version pointer moved,
// and resubmits to the new version. ErrClosed only propagates to callers
// when the whole registry is shutting down.
//
// When Options.DictStore is set, every version compiles through one shared
// content-addressed dictionary store (see ipe.DictStore): identical
// index-pair programs across models — and across a swap back to a served
// version's weights — are interned to one canonical compiled form, whose
// streams every plan serving that program shares. Canonical streams stay
// interned while any live version references them. Residency() reports the
// resulting resident bytes per model, with the interned overlap attributed
// once.
package registry

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipe"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// CompileFunc builds a fresh compiled plan for one model version. The
// registry calls it with the load request's seed (weights derive from it, so
// successive versions are distinguishable); implementations must route
// through the same runtime.Options for every call so versions stay
// comparable and shared-dictionary interning can collapse their overlap.
type CompileFunc func(model string, seed uint64) (*runtime.Plan, error)

// Options configures a Registry.
type Options struct {
	// Compile builds each version's plan. Required.
	Compile CompileFunc
	// Serve is the batcher configuration applied to every version.
	Serve serve.Config
	// DictStore, when non-nil, is reported by Residency as the shared
	// dictionary store the Compile function interns through. The registry
	// does not intern plans itself — CompileFunc owns the compile options —
	// it only accounts for the sharing.
	DictStore *ipe.DictStore
	// MinPool and MaxPool clamp the traffic-driven executor pool size per
	// model (defaults 2 and 4×MaxInFlight×GOMAXPROCS-equivalent 64).
	MinPool, MaxPool int
}

// Version is one immutable loaded instance of a model. It owns its plan —
// one serving structure per operator — the references those structures
// hold on the dictionary store, its batcher, and the metrics series under
// Plan.MetricsPrefix; retiring it after the drain gives all of them back.
type Version struct {
	Model   string
	Version int64
	Seed    uint64
	Plan    *runtime.Plan
	Batcher *serve.Batcher
	loaded  time.Time
}

// Model is one served model: the atomic current-version pointer plus swap
// bookkeeping. All version transitions for a model serialize on loadMu;
// Predict never takes it.
type Model struct {
	Name string

	cur    atomic.Pointer[Version]
	swaps  atomic.Int64
	loadMu sync.Mutex

	reg *Registry
	ms  *metrics.ModelStats
}

// Registry implements serve.Provider over a set of hot-swappable models.
type Registry struct {
	opts Options

	mu     sync.RWMutex
	byName map[string]*Model
	closed bool

	sizerStop chan struct{}
	sizerDone chan struct{}
}

// New builds an empty registry. Options.Compile is required.
func New(opts Options) (*Registry, error) {
	if opts.Compile == nil {
		return nil, fmt.Errorf("registry: Options.Compile is required")
	}
	if opts.MinPool <= 0 {
		opts.MinPool = 2
	}
	if opts.MaxPool <= 0 {
		opts.MaxPool = 64
	}
	return &Registry{opts: opts, byName: make(map[string]*Model)}, nil
}

// Add compiles and serves the first version of a model. It is the startup
// path; use Swap to load subsequent versions.
func (r *Registry) Add(name string, seed uint64) (*Version, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, serve.ErrClosed
	}
	if _, ok := r.byName[name]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: model %q already registered", name)
	}
	m := &Model{Name: name, reg: r, ms: metrics.Get().Model(name)}
	r.byName[name] = m
	r.mu.Unlock()

	v, err := m.load(seed)
	if err != nil {
		r.mu.Lock()
		delete(r.byName, name)
		r.mu.Unlock()
		return nil, err
	}
	return v, nil
}

// Swap compiles a new version of the named model and hot-swaps it into the
// traffic path: the compile runs while the old version keeps serving, the
// atomic pointer flips, the old batcher drains (completing every admitted
// request), and the old version is retired.
func (r *Registry) Swap(name string, seed uint64) (*Version, error) {
	m, ok := r.model(name)
	if !ok {
		return nil, serve.ErrUnknownModel
	}
	return m.load(seed)
}

// load compiles seed into the next version and performs the swap handshake.
// Serialized per model by loadMu so concurrent loads cannot interleave their
// drain phases.
func (m *Model) load(seed uint64) (*Version, error) {
	m.loadMu.Lock()
	defer m.loadMu.Unlock()

	old := m.cur.Load()
	next := int64(1)
	if old != nil {
		next = old.Version + 1
	}
	plan, err := m.reg.opts.Compile(m.Name, seed)
	if err != nil {
		return nil, fmt.Errorf("registry: compiling %s version %d: %w", m.Name, next, err)
	}
	// Layer series carry the version ("name@vN/..."); the endpoint series is
	// registered under the bare model name so request/flush counters stay
	// continuous across swaps (and FilterModel keeps both).
	plan.MetricsPrefix = fmt.Sprintf("%s@v%d/", m.Name, next)
	v := &Version{
		Model:   m.Name,
		Version: next,
		Seed:    seed,
		Plan:    plan,
		Batcher: serve.NewBatcher(m.Name, plan, m.reg.opts.Serve),
		loaded:  time.Now(),
	}

	m.cur.Store(v) // new traffic routes to the new version from here on
	if old != nil {
		m.swaps.Add(1)
		old.Batcher.Close() // drains every admitted request, then stops
		// Retire the old version: discard its warm executors, give back the
		// programs it interned, and drop its per-version series.
		old.Plan.ReleasePool()
		metrics.Get().DropPrefix(old.Plan.MetricsPrefix)
	}
	m.publish()
	return v, nil
}

// Current returns the version serving traffic (nil before the first Add
// completes).
func (m *Model) Current() *Version { return m.cur.Load() }

// Swaps counts completed hot swaps (version loads beyond the first).
func (m *Model) Swaps() int64 { return m.swaps.Load() }

// publish pushes the model's gauges to the metrics recorder.
func (m *Model) publish() {
	v := m.cur.Load()
	if v == nil {
		return
	}
	owned, shared := v.Plan.ResidentBytes(nil)
	m.ms.Publish(v.Version, m.swaps.Load(), owned, shared, int64(v.Plan.PooledExecutors()))
}

func (r *Registry) model(name string) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.byName[name]
	return m, ok
}

// Model returns the named model's registry entry.
func (r *Registry) Model(name string) (*Model, bool) { return r.model(name) }

// Names lists the registered model names, sorted (serve.Provider).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Info describes the named model's current version (serve.Provider).
func (r *Registry) Info(name string) (serve.ModelInfo, bool) {
	m, ok := r.model(name)
	if !ok {
		return serve.ModelInfo{}, false
	}
	v := m.cur.Load()
	if v == nil {
		return serve.ModelInfo{}, false
	}
	return serve.ModelInfo{
		Name:        name,
		Version:     v.Version,
		InputShape:  v.Plan.Graph.In.OutShape,
		OutputShape: v.Plan.Graph.Out.OutShape,
		MaxBatch:    v.Batcher.MaxBatch(),
	}, true
}

// Predict routes one request through the named model's current version
// (serve.Provider). If a hot swap closes the version's batcher between the
// snapshot and the submit, the ErrClosed is absorbed and the request
// resubmits to the successor — the caller never observes the swap except
// through the version number in the response.
func (r *Registry) Predict(name string, input *tensor.Tensor) (*tensor.Tensor, int64, error) {
	m, ok := r.model(name)
	if !ok {
		return nil, 0, serve.ErrUnknownModel
	}
	for {
		v := m.cur.Load()
		if v == nil {
			return nil, 0, serve.ErrUnknownModel
		}
		out, err := v.Batcher.Submit(input)
		if err == serve.ErrClosed && m.cur.Load() != v {
			continue // swapped mid-flight: retry on the successor version
		}
		return out, v.Version, err
	}
}

// Close drains every model's current batcher and stops the pool sizer.
// Subsequent Predicts fail with ErrClosed (via the drained batchers).
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	models := make([]*Model, 0, len(r.byName))
	for _, m := range r.byName {
		models = append(models, m)
	}
	sizerStop, sizerDone := r.sizerStop, r.sizerDone
	r.mu.Unlock()
	if sizerStop != nil {
		close(sizerStop)
		<-sizerDone
	}
	for _, m := range models {
		m.loadMu.Lock() // no swap may race the final drain
		if v := m.cur.Load(); v != nil {
			v.Batcher.Close()
			v.Plan.ReleasePool()
		}
		m.loadMu.Unlock()
	}
}

// ModelResidency is one row of the registry residency report.
type ModelResidency struct {
	Model      string `json:"model"`
	Version    int64  `json:"version"`
	Swaps      int64  `json:"swaps"`
	OwnedBytes int64  `json:"owned_bytes"`  // resident bytes first attributed to this model
	SharedRefs int64  `json:"shared_bytes"` // bytes referencing programs another model owns
}

// Residency walks every model's current plan with one canonical-stream set
// (sorted by name, so attribution is deterministic): the first plan
// referencing interned streams owns their bytes, later plans count them as
// shared references. The sum of OwnedBytes is the process's actual resident
// model bytes; the sum of SharedRefs is what interning saved.
func (r *Registry) Residency() []ModelResidency {
	seen := make(map[*ipe.Compiled]bool)
	out := make([]ModelResidency, 0)
	for _, name := range r.Names() {
		m, ok := r.model(name)
		if !ok {
			continue
		}
		v := m.cur.Load()
		if v == nil {
			continue
		}
		owned, shared := v.Plan.ResidentBytes(seen)
		out = append(out, ModelResidency{
			Model:      name,
			Version:    v.Version,
			Swaps:      m.swaps.Load(),
			OwnedBytes: owned,
			SharedRefs: shared,
		})
	}
	return out
}

// ResizePools sizes every model's executor free-list from its observed
// traffic: Little's law (concurrency = QPS × mean latency) over the model's
// endpoint series, clamped to [MinPool, MaxPool]. Idle models shrink to
// MinPool; a model sustaining high QPS at high latency keeps enough warm
// executors that flushes never rebuild arenas. Returns the applied sizes by
// model name.
func (r *Registry) ResizePools() map[string]int {
	snap := metrics.Capture()
	eps := make(map[string]metrics.EndpointSnapshot, len(snap.Endpoints))
	for _, ep := range snap.Endpoints {
		eps[ep.Name] = ep
	}
	applied := make(map[string]int)
	for _, name := range r.Names() {
		m, ok := r.model(name)
		if !ok {
			continue
		}
		v := m.cur.Load()
		if v == nil {
			continue
		}
		want := r.opts.MinPool
		if ep, ok := eps[name]; ok && ep.QPS > 0 {
			concurrency := ep.QPS * float64(ep.Latency.MeanNs) / 1e9
			want = int(math.Ceil(concurrency)) + 1
			if want < r.opts.MinPool {
				want = r.opts.MinPool
			}
			if want > r.opts.MaxPool {
				want = r.opts.MaxPool
			}
		}
		v.Plan.SetPoolCap(want)
		applied[name] = want
		m.publish()
	}
	return applied
}

// StartPoolSizer runs ResizePools every interval until Close.
func (r *Registry) StartPoolSizer(interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	r.mu.Lock()
	if r.sizerStop != nil || r.closed {
		r.mu.Unlock()
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	r.sizerStop, r.sizerDone = stop, done
	r.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.ResizePools()
			case <-stop:
				return
			}
		}
	}()
}

// versionRequest is the POST /v1/models/{model}/versions body.
type versionRequest struct {
	Seed uint64 `json:"seed"`
}

// versionResponse answers a successful version load.
type versionResponse struct {
	Model   string `json:"model"`
	Version int64  `json:"version"`
	Seed    uint64 `json:"seed"`
	Swaps   int64  `json:"swaps"`
}

// ExtendMux installs the hot-swap endpoints onto the serving mux
// (serve.NewHandler calls this through the muxExtender hook):
//
//	POST /v1/models/{model}/versions   {"seed":N} → compile + swap (blocking)
//	GET  /v1/models/{model}/metrics    metrics.Snapshot filtered to the model
//	GET  /v1/registry                  residency report (owned/shared bytes)
func (r *Registry) ExtendMux(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/models/{model}/versions", func(w http.ResponseWriter, req *http.Request) {
		name := req.PathValue("model")
		var body versionRequest
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			httpJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
			return
		}
		v, err := r.Swap(name, body.Seed)
		if err != nil {
			status := http.StatusInternalServerError
			if err == serve.ErrUnknownModel {
				status = http.StatusNotFound
			}
			httpJSON(w, status, map[string]string{"error": err.Error()})
			return
		}
		m, _ := r.model(name)
		httpJSON(w, http.StatusOK, versionResponse{
			Model: name, Version: v.Version, Seed: v.Seed, Swaps: m.Swaps(),
		})
	})
	mux.HandleFunc("GET /v1/models/{model}/metrics", func(w http.ResponseWriter, req *http.Request) {
		name := req.PathValue("model")
		if _, ok := r.model(name); !ok {
			httpJSON(w, http.StatusNotFound, map[string]string{"error": "unknown model"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		metrics.Capture().FilterModel(name).WriteJSON(w)
	})
	mux.HandleFunc("GET /v1/registry", func(w http.ResponseWriter, _ *http.Request) {
		httpJSON(w, http.StatusOK, map[string]any{"models": r.Residency()})
	})
}

func httpJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
