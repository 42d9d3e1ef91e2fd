package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	goruntime "runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/ipe"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Span is one timed interval at a layer boundary. Spans of one request share
// ID; Parent names the layer whose span caused this one. The client span is
// recorded by the generator, the handler and provider spans by the traced
// server, so only durations are comparable across layers, not start times.
type Span struct {
	ID     int    `json:"id"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	// StartNs is wall-clock Unix nanoseconds; DurNs comes from the
	// monotonic clock.
	StartNs int64 `json:"start_ns"`
	DurNs   int64 `json:"dur_ns"`
}

const (
	layerClient   = "client"
	layerHandler  = "serve.handler"
	layerProvider = "registry.predict"
)

// traceFile is what the traced server writes when it exits.
type traceFile struct {
	Spans []Span `json:"spans"`
	// GCPauseNs are the process's most recent stop-the-world pauses (the
	// runtime keeps the last 256).
	GCPauseNs []int64 `json:"gc_pause_ns"`
}

// recorder keeps spans in memory until the process ends.
type recorder struct {
	mu    sync.Mutex
	spans []Span
	// byGoroutine maps a handler goroutine to the request it is serving, so
	// the provider decorator — which serve.Provider hands no request
	// context — can attribute its span. net/http runs a handler and the
	// provider call it makes on one goroutine.
	byGoroutine sync.Map // int64 -> int
}

func (r *recorder) add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// goroutineID parses the current goroutine's number from its stack header
// ("goroutine 123 [running]:"), the way net/http's own debug code does.
func goroutineID() int64 {
	var buf [64]byte
	b := buf[:goruntime.Stack(buf[:], false)]
	const prefix = "goroutine "
	if len(b) < len(prefix) {
		return 0
	}
	b = b[len(prefix):]
	n := int64(0)
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int64(c-'0')
	}
	return n
}

// traceHandler wraps the serving mux: every request carrying a request id
// gets a handler span around the whole inner ServeHTTP.
func (r *recorder) traceHandler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, err := strconv.Atoi(req.Header.Get(requestIDHeader))
		if err != nil {
			inner.ServeHTTP(w, req)
			return
		}
		gid := goroutineID()
		r.byGoroutine.Store(gid, id)
		start := time.Now()
		inner.ServeHTTP(w, req)
		dur := time.Since(start)
		r.byGoroutine.Delete(gid)
		r.add(Span{ID: id, Layer: layerHandler, Parent: layerClient, StartNs: start.UnixNano(), DurNs: dur.Nanoseconds()})
	})
}

// tracedProvider decorates the registry: Predict gets a span, everything
// else — including ExtendMux, so swaps and /v1/registry keep working — is
// the registry's own.
type tracedProvider struct {
	*registry.Registry
	rec *recorder
}

func (p *tracedProvider) Predict(name string, input *tensor.Tensor) (*tensor.Tensor, int64, error) {
	id, ok := p.rec.byGoroutine.Load(goroutineID())
	start := time.Now()
	out, version, err := p.Registry.Predict(name, input)
	if ok {
		p.rec.add(Span{ID: id.(int), Layer: layerProvider, Parent: layerHandler,
			StartNs: start.UnixNano(), DurNs: time.Since(start).Nanoseconds()})
	}
	return out, version, err
}

// handler is inspire-serve's handler over reg with both wrappers in place.
func (r *recorder) handler(reg *registry.Registry) http.Handler {
	return r.traceHandler(serve.NewHandler(&tracedProvider{Registry: reg, rec: r}))
}

// servedConfig is the batcher configuration of a default-flag inspire-serve
// (-max-batch 32 -slo 2ms -queue 4096 -workers 0 -inflight 2).
var servedConfig = serve.Config{
	MaxBatch:    32,
	SLO:         2 * time.Millisecond,
	QueueDepth:  4096,
	MaxInFlight: 2,
}

// poolResize is inspire-serve's default -pool-resize period.
const poolResize = 5 * time.Second

// newServedRegistry builds the registry a default-flag inspire-serve builds:
// metrics on, one shared dictionary store, every served model at its default
// weights. cmd/inspire-serve is a main package and cannot be imported, so its
// wiring is repeated here; trace.overhead_pct would show the two drifting
// apart. observe, when non-nil, is told how long each compile took, which is
// the only way to see a swap's compile apart from its publish and drain.
func newServedRegistry(observe func(compile time.Duration)) (*registry.Registry, error) {
	runtime.EnableMetrics()
	dict := ipe.NewDictStore()
	opts := serveOptions(dict)
	reg, err := registry.New(registry.Options{
		Compile: func(model string, seed uint64) (*runtime.Plan, error) {
			start := time.Now()
			plan, err := obs.CompilePlan(model, seed, opts)
			if observe != nil {
				observe(time.Since(start))
			}
			return plan, err
		},
		Serve:     servedConfig,
		DictStore: dict,
	})
	if err != nil {
		return nil, err
	}
	for _, name := range servedModels {
		if _, err := reg.Add(name, 0); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// tracedServe is the traced twin of inspire-serve: the same registry and
// handler with a span recorder around the handler and the provider. It serves
// until SIGTERM, drains, and writes every span to spansPath.
func tracedServe(addr, spansPath string) error {
	reg, err := newServedRegistry(nil)
	if err != nil {
		return err
	}
	reg.StartPoolSizer(poolResize)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Println(listenPrefix + ln.Addr().String())

	rec := &recorder{}
	srv := &http.Server{Handler: rec.handler(reg)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case err := <-errCh:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	reg.Close()

	var mem goruntime.MemStats
	goruntime.ReadMemStats(&mem)
	tf := traceFile{Spans: rec.spans}
	n := int(mem.NumGC)
	if n > len(mem.PauseNs) {
		n = len(mem.PauseNs)
	}
	for i := 0; i < n; i++ {
		tf.GCPauseNs = append(tf.GCPauseNs, int64(mem.PauseNs[i]))
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(spansPath, raw, 0o644)
}

// ledger is the per-request attribution the spans give: for every request
// with a span at all three layers, the time each layer spent itself (its
// span minus its child's).
type ledger struct {
	client, netSelf, handlerSelf, provider []float64 // microseconds, one entry per request
}

// buildLedger joins spans by request id. Requests missing a layer (failed
// before reaching it, or outside the traced window) are left out.
func buildLedger(spans []Span) ledger {
	type parts struct{ client, handler, provider int64 }
	byID := make(map[int]*parts)
	for _, s := range spans {
		p := byID[s.ID]
		if p == nil {
			p = &parts{}
			byID[s.ID] = p
		}
		switch s.Layer {
		case layerClient:
			p.client = s.DurNs
		case layerHandler:
			p.handler = s.DurNs
		case layerProvider:
			p.provider = s.DurNs
		}
	}
	var l ledger
	for _, p := range byID {
		if p.client == 0 || p.handler == 0 || p.provider == 0 {
			continue
		}
		l.client = append(l.client, float64(p.client)/1e3)
		l.netSelf = append(l.netSelf, float64(p.client-p.handler)/1e3)
		l.handlerSelf = append(l.handlerSelf, float64(p.handler-p.provider)/1e3)
		l.provider = append(l.provider, float64(p.provider)/1e3)
	}
	return l
}

// residualPct is how far the ledger's parts are from adding up to the whole:
// |whole − Σ parts| as a percentage of whole.
func residualPct(whole float64, parts ...float64) float64 {
	if whole == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range parts {
		sum += p
	}
	d := whole - sum
	if d < 0 {
		d = -d
	}
	return 100 * d / whole
}
