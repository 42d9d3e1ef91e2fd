// Command inspire-load drives a running inspire-serve instance with
// closed-loop concurrent clients and reports sustained throughput and tail
// latency per endpoint, plus the server-side batching evidence (mean
// coalesced batch size) pulled from /metrics after the run.
//
//	inspire-load -url http://127.0.0.1:8080                      # 64 clients, 5s, lenet5
//	inspire-load -models lenet5,squeezenet -clients 1000 -duration 10s
//	inspire-load -clients 200 -items 4 -json
//	inspire-load -fail   # exit 1 on any dropped (429) or failed request
//	inspire-load -swap-model lenet5 -swap-seed 2   # hot-swap mid-run
//
// With several -models the client count is split evenly across them and
// the endpoints run concurrently (one report per endpoint). Every 200
// response body is verified: one that does not decode, names no model or
// has the wrong output length counts as failed, one naming another model as
// mis-routed, and each closed-loop client's observed version sequence must
// be non-decreasing across hot swaps. With -swap-model the driver POSTs a
// version load for that model halfway through the run (or at -swap-after),
// so a single invocation proves drain-without-drops under swap; -fail then
// also trips on mis-routes, version regressions, or a failed swap.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/serve"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "inspire-serve base URL")
	models := flag.String("models", "lenet5", "comma-separated endpoints to drive")
	clients := flag.Int("clients", 64, "total concurrent closed-loop clients (split across models)")
	duration := flag.Duration("duration", 5*time.Second, "how long to fire")
	items := flag.Int("items", 1, "request batch size in compiled-batch chunks")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	jsonOut := flag.Bool("json", false, "emit the reports as JSON instead of a table")
	fail := flag.Bool("fail", false,
		"exit non-zero on any dropped (429) or failed request, mis-route, version regression, or failed swap")
	swapModel := flag.String("swap-model", "", "hot-swap this model mid-run (POST a new version while firing)")
	swapSeed := flag.Uint64("swap-seed", 1, "weight seed for the swapped-in version")
	swapAfter := flag.Duration("swap-after", 0, "when to fire the swap (0 = halfway through -duration)")
	flag.Parse()

	var names []string
	for _, n := range strings.Split(*models, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "inspire-load: no models")
		os.Exit(2)
	}
	per := *clients / len(names)
	if per < 1 {
		per = 1
	}

	reports := make([]*serve.LoadReport, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			cfg := serve.LoadConfig{
				URL:      *url,
				Model:    name,
				Clients:  per,
				Duration: *duration,
				Items:    *items,
				Timeout:  *timeout,
			}
			// The first endpoint's run drives the swap so it fires exactly
			// once even when several models run concurrently.
			if i == 0 && *swapModel != "" {
				cfg.SwapModel = *swapModel
				cfg.SwapSeed = *swapSeed
				cfg.SwapAfter = *swapAfter
			}
			reports[i], errs[i] = serve.RunLoad(cfg)
		}(i, name)
	}
	wg.Wait()

	bad := false
	for i, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "inspire-load: %s: %v\n", names[i], err)
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "inspire-load: %v\n", err)
			os.Exit(1)
		}
	} else {
		t := report.NewTable(fmt.Sprintf("load (%d clients, %v)", per*len(names), *duration),
			"endpoint", "clients", "ok", "dropped", "failed", "misrouted",
			"versions", "qps", "p50", "p90", "p99", "max", "mean batch", "srv p99")
		for _, r := range reports {
			t.AddRow(
				r.Model,
				report.Count(int64(r.Clients)),
				report.Count(r.OK),
				report.Count(r.Dropped),
				report.Count(r.Failed),
				report.Count(r.MisRouted),
				fmt.Sprintf("v%d-v%d", r.MinVersion, r.MaxVersion),
				report.Num(r.QPS),
				r.P50.Round(time.Microsecond).String(),
				r.P90.Round(time.Microsecond).String(),
				r.P99.Round(time.Microsecond).String(),
				r.MaxLat.Round(time.Microsecond).String(),
				report.Num(r.Endpoint.MeanBatch),
				time.Duration(r.Endpoint.Latency.P99Ns).Round(time.Microsecond).String(),
			)
		}
		t.Fprint(os.Stdout)
		if *swapModel != "" {
			r := reports[0]
			fmt.Printf("swap: %s -> v%d (status %d)\n", *swapModel, r.SwapVersion, r.SwapStatus)
		}
	}

	if *fail {
		for _, r := range reports {
			if r.Dropped > 0 || r.Failed > 0 || r.OK == 0 ||
				r.MisRouted > 0 || r.VersionRegressions > 0 {
				fmt.Fprintf(os.Stderr,
					"inspire-load: %s: ok=%d dropped=%d failed=%d misrouted=%d regressions=%d\n",
					r.Model, r.OK, r.Dropped, r.Failed, r.MisRouted, r.VersionRegressions)
				os.Exit(1)
			}
		}
		if *swapModel != "" && reports[0].SwapStatus != 200 {
			fmt.Fprintf(os.Stderr, "inspire-load: swap %s failed with status %d\n",
				*swapModel, reports[0].SwapStatus)
			os.Exit(1)
		}
	}
}
