package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

func TestQuantileAndMedian(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := quantile(asc, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of empty sample = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of odd sample = %v, want 5", got)
	}
}

// A percentile is reported only where at least ten samples lie beyond it.
func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n       int
		q, want float64
	}{
		{1000, 0.99, 0.99}, // exactly ten beyond
		{999, 0.99, 1 - 10.0/999},
		{100, 0.90, 0.90},
		{99, 0.90, 1 - 10.0/99},
		{330, 0.99, 1 - 10.0/330},
		{15, 0.99, 0.5}, // no tail percentile is supported: fall back to the median
		{100, 0.50, 0.50},
	} {
		if got := supportedQuantile(c.n, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("supportedQuantile(n=%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, at := tail(xs, 0.99)
	if at != 0.95 || v != 190 {
		t.Errorf("tail(200 samples, p99) = %v at %v, want 190 at 0.95", v, at)
	}
	if beyond := len(xs) - int(v); beyond < minBeyond {
		t.Errorf("only %d samples beyond the reported percentile", beyond)
	}
	if note := percentileNote(0.99, at); !strings.Contains(note, "p95") {
		t.Errorf("note %q does not name the percentile reported", note)
	}
	if note := percentileNote(0.9, 0.9); note != "" {
		t.Errorf("unexpected note %q for a supported percentile", note)
	}
}

func TestScheduleIsSeedDetermined(t *testing.T) {
	a := poissonSchedule(7, 200, 10*time.Second)
	b := poissonSchedule(7, 200, 10*time.Second)
	c := poissonSchedule(8, 200, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at arrival %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d is before arrival %d", i, i-1)
		}
	}
	if len(a) == len(c) && a[0] == c[0] && a[len(a)-1] == c[len(c)-1] {
		t.Error("different seeds gave the same schedule")
	}
	// 200 req/s for 10 s: 2000 expected, sd ~45.
	if len(a) < 1800 || len(a) > 2200 {
		t.Errorf("%d arrivals in 10s at 200/s", len(a))
	}
	if last := a[len(a)-1]; last >= 10*time.Second {
		t.Errorf("arrival at %v is outside the 10s span", last)
	}
}

func TestInputsAndSwapSeedsAreSeedDetermined(t *testing.T) {
	a, ea, err := buildPool(3, "lenet5")
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := buildPool(3, "lenet5")
	c, _, _ := buildPool(4, "lenet5")
	if len(a) != poolSize || len(b) != poolSize || len(c) != poolSize || len(ea.outputs) != poolSize {
		t.Fatalf("pools have %d, %d, %d inputs and %d expected outputs, want %d", len(a), len(b), len(c), len(ea.outputs), poolSize)
	}
	for i := range a {
		for j, v := range a[i].Data() {
			if v != b[i].Data()[j] {
				t.Fatalf("same seed: input %d differs at element %d", i, j)
			}
		}
	}
	if a[0].Data()[0] == c[0].Data()[0] && a[0].Data()[1] == c[0].Data()[1] {
		t.Error("different seeds gave the same first input")
	}
	if a[0].Data()[0] == a[1].Data()[0] && a[0].Data()[1] == a[1].Data()[1] {
		t.Error("pool inputs 0 and 1 are the same")
	}
	if got := swapSeed(7, 3); got != 7003 {
		t.Errorf("swapSeed(7, 3) = %d, want 7003", got)
	}
}

func TestRequestItemsMatchBodies(t *testing.T) {
	w, _ := workloadByName("squeezenet_batch8")
	for i := 0; i < 3*poolSize; i++ {
		items := w.requestItems(i)
		if len(items) != 8 {
			t.Fatalf("request %d carries %d items", i, len(items))
		}
		seen := make(map[int]bool)
		for j, p := range items {
			if p != (i+j)%poolSize {
				t.Fatalf("request %d item %d is pool input %d", i, j, p)
			}
			seen[p] = true
		}
		if len(seen) != 8 {
			t.Fatalf("request %d repeats a pool input: %v", i, items)
		}
		// bodies[i % used] must carry exactly these items.
		again := w.requestItems(i % poolSize)
		for j := range items {
			if items[j] != again[j] {
				t.Fatalf("request %d and its body rotation %d disagree", i, i%poolSize)
			}
		}
	}
	sw, _ := workloadByName("mixed_swap")
	for i := 0; i < 10; i++ {
		if p := sw.requestItems(i)[0]; p >= swapInputs {
			t.Fatalf("swapping workload sends pool input %d, beyond its %d-input table", p, swapInputs)
		}
	}
}

func TestLedgerSelfTimes(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	spans := []Span{
		{ID: 1, Layer: layerClient, DurNs: us(1000)},
		{ID: 1, Layer: layerHandler, Parent: layerClient, DurNs: us(700)},
		{ID: 1, Layer: layerProvider, Parent: layerHandler, DurNs: us(400)},
		{ID: 2, Layer: layerClient, DurNs: us(2000)},
		{ID: 2, Layer: layerHandler, Parent: layerClient, DurNs: us(1500)},
		{ID: 2, Layer: layerProvider, Parent: layerHandler, DurNs: us(1400)},
		{ID: 3, Layer: layerHandler, Parent: layerClient, DurNs: us(50)}, // warm-up: no client span
		{ID: 4, Layer: layerClient, DurNs: us(10)},                       // never reached the server
	}
	l := buildLedger(spans)
	if len(l.client) != 2 {
		t.Fatalf("ledger joined %d requests, want 2", len(l.client))
	}
	sum := func(xs []float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return
	}
	if got := sum(l.netSelf); got != 300+500 {
		t.Errorf("net self times sum to %v, want 800", got)
	}
	if got := sum(l.handlerSelf); got != 300+100 {
		t.Errorf("handler self times sum to %v, want 400", got)
	}
	if got := sum(l.provider); got != 400+1400 {
		t.Errorf("provider spans sum to %v, want 1800", got)
	}
	// Per request the parts add up to the whole exactly.
	if got := sum(l.client) - sum(l.netSelf) - sum(l.handlerSelf) - sum(l.provider); got != 0 {
		t.Errorf("parts miss the whole by %v", got)
	}
	if got := residualPct(1000, 300, 300, 400); got != 0 {
		t.Errorf("residual of an exact ledger = %v", got)
	}
	if got := residualPct(1000, 300, 300, 300); got != 10 {
		t.Errorf("residual = %v, want 10", got)
	}
	if got := residualPct(1000, 600, 600, -100); math.Abs(got-10) > 1e-9 {
		t.Errorf("residual with a negative part = %v, want 10", got)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy("lower", 100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("latency 100 -> 110 is worse by %v, want 0.10", got)
	}
	if got := worseBy("higher", 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("throughput 100 -> 90 is worse by %v, want 0.10", got)
	}
	if got := worseBy("higher", 100, 120); got >= 0 {
		t.Errorf("throughput 100 -> 120 reads as worse by %v", got)
	}
}

// Every workload and metric name BENCHMARK.json fixes is emitted, with the
// unit it fixes, and nothing else is.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, spec.Workloads[i].Name, w.Name)
		}
	}
	compare := func(kind string, want []specMetric, got []Metric) {
		t.Helper()
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, the harness emits %d", kind, len(want), len(got))
		}
		emitted := make(map[string]string)
		for _, m := range got {
			if _, dup := emitted[m.Name]; dup {
				t.Errorf("%s: %s emitted twice", kind, m.Name)
			}
			emitted[m.Name] = m.Unit
		}
		for _, m := range want {
			unit, ok := emitted[m.Name]
			if !ok {
				t.Errorf("%s: %s is in BENCHMARK.json but not emitted", kind, m.Name)
			} else if unit != m.Unit || unit == "" {
				t.Errorf("%s: %s emitted in %q, BENCHMARK.json says %q", kind, m.Name, unit, m.Unit)
			}
		}
	}
	empty := &loadResult{measured: time.Second}
	for _, w := range workloads {
		compare(w.Name+" end_to_end", spec.EndToEnd, endToEndMetrics(w, empty, nil, nil, 0))
		compare(w.Name+" per_layer", spec.PerLayer,
			layerMetrics(w, empty, empty, metrics.Snapshot{}, nil, &traceFile{}, compileParts{}, runParts{metricsOff: 1}))
	}
	var setup *specMetric
	for i := range spec.EndToEnd {
		m := &spec.EndToEnd[i]
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s has bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
}

// The expected-output table catches a wrong output, a reply meant for another
// request, and a reply of the wrong length.
func TestOracleCheck(t *testing.T) {
	w, _ := workloadByName("lenet5_open200")
	pool, exp, err := buildPool(1, w.Model)
	if err != nil {
		t.Fatal(err)
	}
	// The executor under test, which the oracle never used, agrees with it.
	plan, err := obs.CompilePlan(w.Model, 0, serveOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]float32, poolSize)
	for i, in := range pool {
		out, err := plan.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out.Data()
		if err := exp.check([]int{i}, outs[i]); err != nil {
			t.Errorf("executor output for input %d fails the oracle: %v", i, err)
		}
	}
	if err := exp.check([]int{0}, outs[1]); err == nil {
		t.Error("input 1's output passed as input 0's: a mis-scattered batch slice would go unseen")
	}
	if err := exp.check([]int{0, 1}, append(append([]float32(nil), outs[0]...), outs[1]...)); err != nil {
		t.Errorf("two-item reply fails: %v", err)
	}
	if err := exp.check([]int{0, 1}, outs[0]); err == nil {
		t.Error("short reply passed")
	}
	if err := exp.check([]int{0}, append(append([]float32(nil), outs[0]...), 0)); err == nil {
		t.Error("long reply passed")
	}
	bad := append([]float32(nil), outs[0]...)
	bad[3] = float32(math.NaN())
	if err := exp.check([]int{0}, bad); err == nil {
		t.Error("NaN passed")
	}
}

// A server that dies of the harness's own SIGTERM (sent before it installed
// its handler) stopped cleanly; one that exits non-zero or dies of anything
// else did not.
func TestTerminatedBy(t *testing.T) {
	cmd := exec.Command("sleep", "60")
	if err := cmd.Start(); err != nil {
		t.Skip("no sleep command:", err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); !terminatedBy(err, syscall.SIGTERM) {
		t.Errorf("death by SIGTERM not recognised: %v", err)
	} else if terminatedBy(err, syscall.SIGKILL) {
		t.Error("death by SIGTERM reads as death by SIGKILL")
	}
	if err := exec.Command("sh", "-c", "exit 3").Run(); err == nil || terminatedBy(err, syscall.SIGTERM) {
		t.Errorf("exit status 3 reads as death by SIGTERM: %v", err)
	}
	if terminatedBy(nil, syscall.SIGTERM) {
		t.Error("a clean exit reads as death by SIGTERM")
	}
}

func TestGoroutineID(t *testing.T) {
	here := goroutineID()
	if here == 0 {
		t.Fatal("goroutine id parsed as 0")
	}
	if again := goroutineID(); again != here {
		t.Errorf("goroutine id changed from %d to %d", here, again)
	}
	var wg sync.WaitGroup
	var there int64
	wg.Add(1)
	go func() { defer wg.Done(); there = goroutineID() }()
	wg.Wait()
	if there == here || there == 0 {
		t.Errorf("another goroutine reported id %d (this one is %d)", there, here)
	}
}

// The handler and provider wrappers record one span each per request, under
// the request's id, with the provider's inside the handler's.
func TestTracedHandlerSpans(t *testing.T) {
	reg, err := newServedRegistry(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	rec := &recorder{}
	srv := httptest.NewServer(rec.handler(reg))
	defer srv.Close()

	w, _ := workloadByName("lenet5_open200")
	p, err := prepareWorkload(w, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bodies, orc := p.bodies, p.oracle
	client := newConnClient()
	defer client.CloseIdleConnections()
	for id := 0; id < 3; id++ {
		var out outcome
		if _, err := predict(client, srv.URL+"/v1/models/lenet5/predict", id, bodies[id], w, orc, &out); err != nil {
			t.Fatalf("request %d: %v", id, err)
		}
	}
	// A request without an id is served and leaves no span.
	resp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	byID := make(map[int]map[string]int64)
	for _, s := range rec.spans {
		if byID[s.ID] == nil {
			byID[s.ID] = make(map[string]int64)
		}
		if _, dup := byID[s.ID][s.Layer]; dup {
			t.Errorf("request %d has two %s spans", s.ID, s.Layer)
		}
		byID[s.ID][s.Layer] = s.DurNs
	}
	if len(byID) != 3 {
		t.Fatalf("spans for %d requests, want 3: %+v", len(byID), rec.spans)
	}
	for id, layers := range byID {
		h, p := layers[layerHandler], layers[layerProvider]
		if h <= 0 || p <= 0 || p > h {
			t.Errorf("request %d: handler span %dns, provider span %dns", id, h, p)
		}
	}
}
