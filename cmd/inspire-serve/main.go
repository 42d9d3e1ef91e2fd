// Command inspire-serve is the network inference front end: a versioned,
// hot-swappable model registry over compiled plans, per-model dynamic
// batchers with admission control, and JSON inference over HTTP.
//
//	inspire-serve                          # lenet5 + squeezenet on :8080
//	inspire-serve -addr 127.0.0.1:0        # ephemeral port (printed on stdout)
//	inspire-serve -models lenet5 -force ipe
//	inspire-serve -max-batch 64 -inflight 2 -queue 4096
//	inspire-serve -share-dict=false        # disable shared-dictionary interning
//
// Batching never waits on a timer: a request that finds one of the
// -inflight flush slots free runs at once, and batches grow (up to
// -max-batch chunks) only while every slot is busy.
//
// Every model compiles through obs.CompilePlan, so a served plan and a
// benchmarked plan (benchmark/) differ only in the explicit options
// (-force, -bits), never in model construction. Each layer serves the
// implementation Compile selected for it; nothing is re-chosen on live
// traffic. With -share-dict (the default) all models and all hot-swap
// versions compile through one content-addressed dictionary store:
// identical index-pair programs across models and versions are interned
// once and their compiled emit tables reused, shrinking resident bytes per
// model (watch the "models" table of `inspire-stats -url ...`).
//
// Hot swap: POST /v1/models/{model}/versions with {"seed":N} compiles a new
// weight version while the old one keeps serving, atomically redirects
// traffic, drains the old batcher (zero dropped requests — CI enforces it),
// and retires the old version: its executor pool, its interned programs and
// its metrics series go, so memory stays flat across swaps. Responses carry
// the serving version, so clients can verify monotonicity across swaps.
//
// Endpoints:
//
//	GET  /healthz                     liveness
//	GET  /v1/models                   model listing (shapes, versions, limits)
//	POST /v1/models/{model}/predict   {"data":[...],"shape":[...]} inference
//	POST /v1/models/{model}/versions  {"seed":N} compile + hot-swap
//	GET  /v1/models/{model}/metrics   per-model metrics.Snapshot slice
//	GET  /v1/registry                 residency report (owned/shared bytes)
//	GET  /metrics                     live metrics.Snapshot JSON
//
// Responses: 200 on success, 400 on malformed input, 404 unknown model,
// 429 when the admission queue is full (back off and retry), 503 while
// draining during shutdown. SIGINT/SIGTERM drain admitted requests before
// exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/ipe"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/serve"
)

// Server timeouts: how long a client may take to send a request's headers,
// and how long a keep-alive connection may sit idle between requests.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:0 picks an ephemeral port)")
	addrFile := flag.String("addrfile", "", "write the bound address to this file once listening (for scripts)")
	models := flag.String("models", "lenet5,squeezenet", "comma-separated models to serve")
	force := flag.String("force", "auto",
		"implementation to pin every conv/dense layer to: auto, dense, csr, factorized, ipe, winograd")
	bits := flag.Int("bits", 4, "weight quantization bit-width for encoded implementations")
	shareDict := flag.Bool("share-dict", true,
		"intern index-pair programs through one shared dictionary store across models and versions")
	maxBatch := flag.Int("max-batch", 32, "stop growing a batch at this many compiled-batch chunks")
	queue := flag.Int("queue", 4096, "admission queue depth per model (full queue = 429)")
	workers := flag.Int("workers", 0, "RunBatch workers per flush (0 = GOMAXPROCS)")
	inflight := flag.Int("inflight", 2, "concurrent RunBatch flushes per model")
	poolSize := flag.Duration("pool-resize", 5*time.Second,
		"traffic-driven executor pool resizing period (0 = off)")
	flag.Parse()

	impl, ok := runtime.ImplByName(*force)
	if !ok {
		fmt.Fprintf(os.Stderr, "inspire-serve: unknown -force %q\n", *force)
		os.Exit(2)
	}

	// Metrics first: batchers and executors resolve the recorder when built.
	runtime.EnableMetrics()

	opts := runtime.Options{Force: impl, Bits: *bits}
	var dict *ipe.DictStore
	if *shareDict {
		dict = ipe.NewDictStore()
		opts.DictStore = dict
	}

	reg, err := registry.New(registry.Options{
		// Every version of every model — the startup loads below and all
		// later hot swaps — compiles through this one function.
		Compile: func(model string, seed uint64) (*runtime.Plan, error) {
			return obs.CompilePlan(model, seed, opts)
		},
		Serve: serve.Config{
			MaxBatch:    *maxBatch,
			QueueDepth:  *queue,
			Workers:     *workers,
			MaxInFlight: *inflight,
		},
		DictStore: dict,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "inspire-serve: %v\n", err)
		os.Exit(1)
	}

	served := 0
	for _, name := range strings.Split(*models, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		v, err := reg.Add(name, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "inspire-serve: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("inspire-serve: %s v%d compiled (force=%s share-dict=%v, input %v)\n",
			name, v.Version, *force, *shareDict, v.Plan.Graph.In.OutShape)
		served++
	}
	if served == 0 {
		fmt.Fprintln(os.Stderr, "inspire-serve: no models")
		os.Exit(2)
	}
	if dict != nil {
		st := dict.Stats()
		fmt.Printf("inspire-serve: shared dict: %d unique programs, %d hits, %d bytes saved\n",
			st.UniquePrograms, st.ProgramHits, st.SavedBytes)
	}
	if *poolSize > 0 {
		reg.StartPoolSizer(*poolSize)
	}

	// Catch SIGINT/SIGTERM before the address is bound or published: from
	// the moment a script can learn the address, a signal must drain, never
	// kill by default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "inspire-serve: %v\n", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	fmt.Printf("inspire-serve: listening on %s\n", bound)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "inspire-serve: writing -addrfile: %v\n", err)
			os.Exit(1)
		}
	}

	// A client that stalls mid-header is cut off after readHeaderTimeout and
	// an idle keep-alive connection after idleTimeout, so neither can pin a
	// connection for good. No write timeout yet: a deadline must not cut a
	// predict off mid-response while the batcher still runs it.
	srv := &http.Server{
		Handler:           serve.NewHandler(reg),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Printf("inspire-serve: %v: draining\n", s)
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "inspire-serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Stop accepting connections, then drain the batchers so every admitted
	// request completes before exit.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "inspire-serve: shutdown: %v\n", err)
	}
	reg.Close()
	fmt.Println("inspire-serve: drained, bye")
}
