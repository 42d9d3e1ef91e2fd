package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// LoadConfig drives one load-generation run against a running
// inspire-serve instance.
type LoadConfig struct {
	// URL is the server base, e.g. "http://127.0.0.1:8080".
	URL string
	// Model is the endpoint to drive.
	Model string
	// Clients is the number of concurrent closed-loop clients (each keeps
	// exactly one request in flight).
	Clients int
	// Duration is how long the clients fire for.
	Duration time.Duration
	// Items is the request batch size in compiled-batch chunks (default 1).
	Items int
	// Timeout bounds each HTTP request (default 30s).
	Timeout time.Duration

	// SwapModel, when non-empty, hot-swaps that model mid-run: after
	// SwapAfter (default Duration/2) the driver POSTs
	// /v1/models/{SwapModel}/versions with SwapSeed, while the clients keep
	// firing. The report then carries the swap outcome, and when SwapModel
	// == Model the version checks prove zero requests dropped or regressed
	// across the swap.
	SwapModel string
	SwapSeed  uint64
	SwapAfter time.Duration
}

// LoadReport aggregates one run: client-side status counts and exact
// latency percentiles, plus the server-side endpoint snapshot (batch
// coalescing evidence) fetched from /metrics after the run.
type LoadReport struct {
	Model    string        `json:"model"`
	Clients  int           `json:"clients"`
	Duration time.Duration `json:"duration_ns"`

	Requests int64         `json:"requests"`
	OK       int64         `json:"ok"`
	Dropped  int64         `json:"dropped_429"`
	Failed   int64         `json:"failed"` // non-2xx other than 429, transport errors, broken 2xx bodies
	QPS      float64       `json:"qps"`
	MeanLat  time.Duration `json:"mean_latency_ns"`
	P50      time.Duration `json:"p50_ns"`
	P90      time.Duration `json:"p90_ns"`
	P99      time.Duration `json:"p99_ns"`
	MaxLat   time.Duration `json:"max_latency_ns"`

	// Routing/versioning verification over the response bodies: MisRouted
	// counts 200s whose body named a different model; VersionRegressions
	// counts responses a client saw with a version lower than one it had
	// already seen (each client is closed-loop, so its version sequence
	// must be non-decreasing across hot swaps); MinVersion/MaxVersion
	// bound the versions observed.
	MisRouted          int64 `json:"mis_routed"`
	VersionRegressions int64 `json:"version_regressions"`
	MinVersion         int64 `json:"min_version,omitempty"`
	MaxVersion         int64 `json:"max_version,omitempty"`

	// Swap outcome (zero values unless LoadConfig requested a mid-run
	// swap): the HTTP status of the version POST and the version it
	// reported serving afterwards.
	SwapStatus  int   `json:"swap_status,omitempty"`
	SwapVersion int64 `json:"swap_version,omitempty"`

	// Endpoint is the server's view of this endpoint after the run (zero
	// value if /metrics was unreachable).
	Endpoint metrics.EndpointSnapshot `json:"endpoint"`
}

// RunLoad executes the load run: it discovers the model's input shape from
// /v1/models, builds one deterministic payload, fires Clients closed-loop
// workers for Duration, and aggregates exact percentiles over every
// completed request. Every 2xx body is parsed and verified: one that does
// not decode, names no model or carries other than Items × the model's
// output volume values counts as failed; one naming another model counts as
// mis-routed; and each client's observed version sequence must be
// non-decreasing.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Items <= 0 {
		cfg.Items = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	info, err := fetchModelInfo(cfg.URL, cfg.Model, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	shape := append([]int(nil), info.InputShape...)
	if len(shape) == 0 {
		return nil, fmt.Errorf("serve: model %s reports no input shape", cfg.Model)
	}
	shape[0] *= cfg.Items
	in := tensor.New(shape...)
	tensor.FillGaussian(in, tensor.NewRNG(7), 1)
	body, err := json.Marshal(PredictRequest{Shape: shape, Data: in.Data()})
	if err != nil {
		return nil, err
	}
	url := fmt.Sprintf("%s/v1/models/%s/predict", cfg.URL, cfg.Model)
	wantOut := cfg.Items
	for _, d := range info.OutputShape {
		wantOut *= d
	}

	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Clients,
			MaxIdleConnsPerHost: cfg.Clients,
		},
	}

	var ok, dropped, failed, misrouted, regressions atomic.Int64
	var minVersion, maxVersion atomic.Int64
	lats := make([][]time.Duration, cfg.Clients)
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	rep := &LoadReport{
		Model:   cfg.Model,
		Clients: cfg.Clients,
	}

	var swapWG sync.WaitGroup
	if cfg.SwapModel != "" {
		after := cfg.SwapAfter
		if after <= 0 {
			after = cfg.Duration / 2
		}
		swapWG.Add(1)
		go func() {
			defer swapWG.Done()
			time.Sleep(after)
			status, version := postVersion(client, cfg.URL, cfg.SwapModel, cfg.SwapSeed)
			rep.SwapStatus, rep.SwapVersion = status, version
		}()
	}

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lastVersion := int64(0)
			for time.Now().Before(deadline) {
				t0 := time.Now()
				status, resp, err := postOnce(client, url, body)
				lat := time.Since(t0)
				switch {
				case err != nil:
					failed.Add(1)
				case status == http.StatusTooManyRequests:
					dropped.Add(1)
				case status >= 200 && status < 300 && (resp.Model == "" || len(resp.Data) != wantOut):
					failed.Add(1) // a 2xx that does not carry a whole answer
				case status >= 200 && status < 300:
					ok.Add(1)
					lats[c] = append(lats[c], lat)
					if resp.Model != cfg.Model {
						misrouted.Add(1)
					}
					if resp.Version > 0 {
						if resp.Version < lastVersion {
							regressions.Add(1)
						}
						lastVersion = resp.Version
						atomicMaxI64(&maxVersion, resp.Version)
						atomicMinNZI64(&minVersion, resp.Version)
					}
				default:
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	swapWG.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.Duration = elapsed
	rep.OK = ok.Load()
	rep.Dropped = dropped.Load()
	rep.Failed = failed.Load()
	rep.MisRouted = misrouted.Load()
	rep.VersionRegressions = regressions.Load()
	rep.MinVersion = minVersion.Load()
	rep.MaxVersion = maxVersion.Load()
	rep.Requests = rep.OK + rep.Dropped + rep.Failed
	if elapsed > 0 {
		rep.QPS = float64(rep.OK) / elapsed.Seconds()
	}
	if n := len(all); n > 0 {
		var sum time.Duration
		for _, l := range all {
			sum += l
		}
		rep.MeanLat = sum / time.Duration(n)
		rep.P50 = all[n*50/100]
		rep.P90 = all[min(n*90/100, n-1)]
		rep.P99 = all[min(n*99/100, n-1)]
		rep.MaxLat = all[n-1]
	}
	if snap, err := FetchSnapshot(cfg.URL, cfg.Timeout); err == nil {
		for _, ep := range snap.Endpoints {
			if ep.Name == cfg.Model {
				rep.Endpoint = ep
			}
		}
	}
	return rep, nil
}

// postOnce fires one predict and parses the response body on 2xx. A 2xx
// body that does not decode is an error, so the caller counts it failed.
func postOnce(client *http.Client, url string, body []byte) (int, PredictResponse, error) {
	var pr PredictResponse
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, pr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		err = json.NewDecoder(resp.Body).Decode(&pr)
	}
	// Drain the body so the connection goes back to the keep-alive pool.
	io.Copy(io.Discard, resp.Body)
	if err != nil {
		return resp.StatusCode, pr, fmt.Errorf("decoding predict response: %w", err)
	}
	return resp.StatusCode, pr, nil
}

// postVersion POSTs a hot-swap load request to the versioned registry's
// versions endpoint and returns the HTTP status and the new version (0 if
// the response carried none).
func postVersion(client *http.Client, base, model string, seed uint64) (int, int64) {
	body, _ := json.Marshal(map[string]any{"seed": seed})
	resp, err := client.Post(
		fmt.Sprintf("%s/v1/models/%s/versions", base, model),
		"application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	var vr struct {
		Version int64 `json:"version"`
	}
	json.NewDecoder(resp.Body).Decode(&vr)
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, vr.Version
}

// fetchModelInfo pulls /v1/models and returns the named model's entry.
func fetchModelInfo(base, model string, timeout time.Duration) (*ModelInfo, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(base + "/v1/models")
	if err != nil {
		return nil, fmt.Errorf("serve: listing models: %w", err)
	}
	defer resp.Body.Close()
	var listing struct {
		Models []ModelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		return nil, fmt.Errorf("serve: decoding model listing: %w", err)
	}
	for i := range listing.Models {
		if listing.Models[i].Name == model {
			return &listing.Models[i], nil
		}
	}
	return nil, fmt.Errorf("serve: model %q not served (have %v)", model, listing.Models)
}

// FetchSnapshot pulls the live metrics.Snapshot from a running server's
// /metrics endpoint (the same schema inspire-stats -json emits).
func FetchSnapshot(base string, timeout time.Duration) (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, err
	}
	return snap, nil
}

// atomicMaxI64 raises *a to v if larger.
func atomicMaxI64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// atomicMinNZI64 lowers *a to v, treating 0 as unset.
func atomicMinNZI64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if (cur != 0 && cur <= v) || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
