// Command inspire-stats runs the evaluation models (LeNet-5 and the 32x32
// SqueezeNet) under the runtime metrics recorder and prints the
// observability breakdown: one table per model with each layer's chosen
// kernel and latency distribution, plus worker-pool and executor/arena
// telemetry.
//
//	inspire-stats                  # inspire-serve's default kernels, aligned tables
//	inspire-stats -force ipe       # pin every conv/dense layer to another family
//	inspire-stats -force auto      # the accelerator model's per-layer choice
//	inspire-stats -model lenet5    # single model
//	inspire-stats -json            # machine-readable metrics.Snapshot dump
//	inspire-stats -runs 20         # more samples per layer series
//
// With -url it skips the local run and instead pulls the live snapshot from
// a running inspire-serve instance's /metrics endpoint, adding the serving
// table (per-endpoint admission counters, batch coalescing, QPS, latency
// percentiles), the hot-swap registry's per-model table (serving version,
// swaps, resident bytes after shared-dictionary interning, QPS/GB density,
// and the models × QPS per GB capacity figure), and the shared dictionary
// store's dedup ledger above the usual layer/pool/executor breakdown:
//
//	inspire-stats -url http://127.0.0.1:8080
//	inspire-stats -url http://127.0.0.1:8080 -json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/serve"
)

func main() {
	defaults := obs.ServedOptions()
	force := flag.String("force", defaults.Force.String(),
		"implementation to pin every conv/dense layer to: auto, dense, csr, factorized, ipe, winograd")
	bits := flag.Int("bits", defaults.Bits, "weight quantization bit-width for encoded implementations")
	runs := flag.Int("runs", 5, "inference runs per model (samples per layer series)")
	model := flag.String("model", "", "restrict to one model: lenet5 or squeezenet (default both)")
	jsonOut := flag.Bool("json", false, "dump the raw metrics.Snapshot as JSON instead of tables")
	url := flag.String("url", "", "fetch the snapshot from a running inspire-serve's /metrics instead of running locally")
	flag.Parse()

	if *url != "" {
		s, err := serve.FetchSnapshot(*url, 10*time.Second)
		if err != nil {
			fmt.Fprintf(os.Stderr, "inspire-stats: fetching %s/metrics: %v\n", *url, err)
			os.Exit(1)
		}
		renderLive(s, *jsonOut)
		return
	}

	impl, ok := runtime.ImplByName(*force)
	if !ok {
		fmt.Fprintf(os.Stderr, "inspire-stats: unknown -force %q\n", *force)
		os.Exit(2)
	}

	models := obs.EvalModels()
	if *model != "" {
		kept := models[:0]
		for _, m := range models {
			if m.Name == *model {
				kept = append(kept, m)
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(os.Stderr, "inspire-stats: unknown -model %q\n", *model)
			os.Exit(2)
		}
		models = kept
	}

	s, err := obs.Meter(models, runtime.Options{Force: impl, Bits: *bits}, *runs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "inspire-stats: %v\n", err)
		os.Exit(1)
	}

	if *jsonOut {
		if err := s.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "inspire-stats: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, m := range models {
		obs.LayerTable(fmt.Sprintf("%s (force=%s, runs=%d)", m.Name, *force, *runs),
			s, m.Name+"/").Fprint(os.Stdout)
		fmt.Println()
	}
	obs.PoolTable(s).Fprint(os.Stdout)
	fmt.Println()
	obs.ExecTable(s).Fprint(os.Stdout)
}

// renderLive prints a snapshot fetched from a running server: the serving
// endpoints first (that's what a live process adds over a local meter run),
// then every layer series it has accumulated, then pool and executor
// telemetry.
func renderLive(s metrics.Snapshot, jsonOut bool) {
	if jsonOut {
		if err := s.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "inspire-stats: %v\n", err)
			os.Exit(1)
		}
		return
	}
	obs.EndpointTable("serving endpoints", s).Fprint(os.Stdout)
	fmt.Println()
	if len(s.Models) > 0 {
		obs.ModelTable("models (hot-swap registry)", s).Fprint(os.Stdout)
		if cap := obs.Capacity(s); cap > 0 {
			fmt.Printf("serving capacity: %.1f models x QPS per GB resident\n", cap)
		}
		fmt.Println()
	}
	if s.SharedDict != nil {
		obs.SharedDictTable(s).Fprint(os.Stdout)
		fmt.Println()
	}
	obs.LayerTable("layers", s, "").Fprint(os.Stdout)
	fmt.Println()
	obs.PoolTable(s).Fprint(os.Stdout)
	fmt.Println()
	obs.ExecTable(s).Fprint(os.Stdout)
}
