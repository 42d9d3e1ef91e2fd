package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/registry"
)

// runTraced produces the per-module metrics of one workload. The measured
// time is split three ways: an untraced phase against the real inspire-serve
// (client tail metrics and the server's own counters), a traced phase against
// the traced twin (spans), and direct calls into the modules below the
// provider. Comparing the two load phases prices the tracing itself.
func runTraced(e *env, w Workload, seed uint64, measure time.Duration) (*Result, error) {
	const warm = warmUp / 2
	phase := measure * 2 / 5
	p, err := prepareWorkload(w, seed, warm+phase)
	if err != nil {
		return nil, err
	}

	// Untraced phase.
	c, err := bootServer(e.serverBin)
	if err != nil {
		return nil, err
	}
	plain := runLoad(c, w, seed, p.bodies, p.oracle, warm, phase)
	snap, snapErr := c.snapshot()
	resident, resErr := c.residency()
	if err := c.stop(); err != nil {
		return nil, err
	}
	if err := errors.Join(snapErr, resErr); err != nil {
		return nil, err
	}

	// Traced phase: the same load against the traced twin, which writes its
	// spans when it exits.
	spansPath := filepath.Join(e.buildDir, fmt.Sprintf("spans-%s-seed%d.json", w.Name, seed))
	c, err = bootServer(e.selfBin, "-traced-server", spansPath)
	if err != nil {
		return nil, err
	}
	traced := runLoad(c, w, seed, p.bodies, p.oracle, warm, phase)
	tsnap, snapErr := c.snapshot()
	if err := c.stop(); err != nil {
		return nil, err
	}
	if snapErr != nil {
		return nil, snapErr
	}
	tf, err := finishTrace(spansPath, traced)
	if err != nil {
		return nil, err
	}

	// Direct calls, with both servers stopped and the load phases' garbage
	// collected, so no collection they caused lands inside a timing loop.
	goruntime.GC()
	cp, err := measureCompile(w.Model, seed, 3)
	if err != nil {
		return nil, err
	}
	rp, err := measureRun(w, seed, p.pool, p.bodies[0], measure/40)
	if err != nil {
		return nil, err
	}

	r := summarize(w, plain, snap)
	rt := summarize(w, traced, tsnap)
	r.Attempted += rt.Attempted
	r.Failed += rt.Failed
	r.Correct = r.Correct && rt.Correct
	r.Detail = "untraced: " + r.Detail + "\n  traced:   " + rt.Detail
	if r.Err == nil {
		r.Err = rt.Err
	}
	r.Metrics = layerMetrics(w, plain, traced, snap, resident, tf, cp, rp)
	return r, nil
}

// finishTrace reads the spans the traced server wrote, adds the client's own
// span for every measured request, and writes the complete trace back, so the
// file holds all three layers of every request.
func finishTrace(path string, lr *loadResult) (*traceFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("traced server left no spans: %w", err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	measured := make(map[int]bool, len(lr.samples))
	for _, s := range lr.samples {
		if s.outcome != outcomeOK {
			continue
		}
		measured[s.id] = true
		tf.Spans = append(tf.Spans, Span{ID: s.id, Layer: layerClient, StartNs: s.sent.Nanoseconds(), DurNs: s.span().Nanoseconds()})
	}
	kept := tf.Spans[:0]
	for _, s := range tf.Spans {
		if measured[s.ID] { // warm-up requests have server spans only
			kept = append(kept, s)
		}
	}
	tf.Spans = kept
	if raw, err = json.Marshal(tf); err != nil {
		return nil, err
	}
	return &tf, os.WriteFile(path, raw, 0o644)
}

// kernelTimes sums, for one inference of the model's newest version that
// served traffic, the server's mean kernel time per layer, by the module the
// kernel lives in. Microseconds.
type kernelTimes struct{ ipe, baseline, tensor, graph float64 }

func kernelTimesOf(snap metrics.Snapshot, model string) kernelTimes {
	newest, prefix := int64(0), ""
	for _, l := range snap.Layers {
		rest, ok := strings.CutPrefix(l.Name, model+"@v")
		if !ok || l.Latency.Count == 0 {
			continue
		}
		vs, _, _ := strings.Cut(rest, "/")
		if v, err := strconv.ParseInt(vs, 10, 64); err == nil && v > newest {
			newest, prefix = v, model+"@v"+vs+"/"
		}
	}
	var k kernelTimes
	for _, l := range snap.Layers {
		if prefix == "" || !strings.HasPrefix(l.Name, prefix) {
			continue
		}
		us := float64(l.Latency.MeanNs) / 1e3
		if ns, ok := l.KernelMeanNs[l.Kernel]; ok {
			us = float64(ns) / 1e3
		}
		switch l.Kernel {
		case "ipe-compiled", "ipe-interpreted":
			k.ipe += us
		case "factorized", "csr":
			k.baseline += us
		case "direct", "im2col", "gemm", "winograd":
			k.tensor += us
		default:
			k.graph += us
		}
	}
	return k
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics assembles every per-module metric, in BENCHMARK.json order.
func layerMetrics(w Workload, plain, traced *loadResult, snap metrics.Snapshot,
	resident []registry.ModelResidency, tf *traceFile, cp compileParts, rp runParts) []Metric {

	lat := latenciesMs(plain)
	p90, p90At := tail(lat, 0.90)
	p99, p99At := tail(lat, 0.99)
	var lag []float64
	for _, s := range plain.samples {
		lag = append(lag, ms(s.sent-s.due))
	}
	lag99, lag99At := tail(lag, 0.99)

	led := buildLedger(tf.Spans)
	n := len(led.client)
	clientUs, netUs := median(led.client), median(led.netSelf)
	handlerUs, providerUs := median(led.handlerSelf), median(led.provider)
	registrySelf := providerUs - rp.submit
	coalesce := rp.submit - rp.runBatchItems

	var pauses []float64
	for _, ns := range tf.GCPauseNs {
		pauses = append(pauses, float64(ns)/1e3)
	}
	gc99, gc99At := tail(pauses, 0.99)

	ep := endpointOf(snap, w.Model)
	kt := kernelTimesOf(snap, w.Model)
	var residentBytes int64
	for _, m := range resident {
		residentBytes += m.OwnedBytes + m.SharedRefs
	}
	var dict metrics.SharedDictSnapshot
	if snap.SharedDict != nil {
		dict = *snap.SharedDict
	}
	plainP50, tracedP50 := median(lat), median(latenciesMs(traced))
	failedShare := ratio(float64(plain.rejected+plain.failed+traced.rejected+traced.failed),
		float64(plain.attempted+traced.attempted))

	dn := rp.n
	return []Metric{
		{Name: "client.latency_p90_ms", Unit: "ms", Value: p90, N: len(lat), Note: percentileNote(0.90, p90At)},
		{Name: "client.latency_p99_ms", Unit: "ms", Value: p99, N: len(lat), Note: percentileNote(0.99, p99At)},
		{Name: "client.over_10ms_share", Unit: "ratio", Value: shareAbove(lat, 10), N: len(lat)},
		{Name: "client.sched_lag_p99_ms", Unit: "ms", Value: lag99, N: len(lag), Note: percentileNote(0.99, lag99At)},
		{Name: "client.failed_share", Unit: "ratio", Value: failedShare, N: plain.attempted + traced.attempted},
		{Name: "net.http_overhead_us", Unit: "us", Value: netUs, N: n, Note: "client span - handler span"},
		{Name: "serve.handler_self_us", Unit: "us", Value: handlerUs, N: n, Note: "handler span - provider span"},
		{Name: "serve.json_decode_us", Unit: "us", Value: rp.jsonDecode, N: dn},
		{Name: "serve.json_encode_us", Unit: "us", Value: rp.jsonEncode, N: dn},
		{Name: "serve.coalesce_wait_us", Unit: "us", Value: coalesce, N: dn, Note: "direct Batcher.Submit - Plan.RunBatch"},
		{Name: "serve.batch_mean_items", Unit: "items", Value: ep.MeanBatch, N: int(ep.Flushes)},
		{Name: "serve.queue_high_water", Unit: "count", Value: float64(ep.QueueMax), N: int(ep.Requests)},
		{Name: "serve.rejected", Unit: "count", Value: float64(ep.RejectedOverload + ep.RejectedClosed), N: int(ep.Requests)},
		{Name: "registry.predict_self_us", Unit: "us", Value: registrySelf, N: n, Note: "provider span - direct Batcher.Submit"},
		{Name: "registry.swap_ms", Unit: "ms", Value: rp.swapMs, N: rp.swapN, Note: "direct Registry.Swap, idle"},
		{Name: "registry.swap_drain_ms", Unit: "ms", Value: rp.swapDrainMs, N: rp.swapN, Note: "swap - its own compile"},
		{Name: "registry.resident_mb", Unit: "MB", Value: float64(residentBytes) / 1e6, N: len(resident)},
		{Name: "runtime.compile_ms", Unit: "ms", Value: cp.compileMs, N: cp.passes},
		{Name: "runtime.compile_other_ms", Unit: "ms", Value: cp.compileSerialMs - cp.encodeMs - cp.lowerMs, N: cp.passes,
			Note: "one-worker compile - encode - lower"},
		{Name: "runtime.exec_run_us", Unit: "us", Value: rp.execRun, N: dn},
		{Name: "runtime.acquire_us", Unit: "us", Value: rp.acquire, N: 10000},
		{Name: "runtime.runbatch1_us", Unit: "us", Value: rp.runBatch1, N: dn},
		{Name: "runtime.runbatch8_us", Unit: "us", Value: rp.runBatch8, N: dn},
		{Name: "runtime.runbatch8_scaling", Unit: "ratio", Value: ratio(8*rp.execRun, rp.runBatch8), N: dn, Note: "8 x exec_run / runbatch8"},
		{Name: "runtime.arena_peak_bytes", Unit: "bytes", Value: float64(snap.Exec.ArenaBytesPeak), N: int(snap.Exec.Builds)},
		{Name: "ipe.kernel_us", Unit: "us", Value: kt.ipe, N: int(snap.Exec.Runs)},
		{Name: "baseline.kernel_us", Unit: "us", Value: kt.baseline, N: int(snap.Exec.Runs)},
		{Name: "tensor.kernel_us", Unit: "us", Value: kt.tensor, N: int(snap.Exec.Runs)},
		{Name: "graph.kernel_us", Unit: "us", Value: kt.graph, N: int(snap.Exec.Runs)},
		{Name: "ipe.adds_per_inference", Unit: "count", Value: float64(cp.ipeAdds), N: 1},
		{Name: "ipe.add_reduction_ratio", Unit: "ratio", Value: ratio(float64(cp.denseMACs), float64(cp.ipeAdds)), N: 1, Note: "dense MACs / IPE adds"},
		{Name: "ipe.encode_ms", Unit: "ms", Value: cp.encodeMs, N: cp.passes},
		{Name: "ipe.lower_ms", Unit: "ms", Value: cp.lowerMs, N: cp.passes},
		{Name: "ipe.dict_hit_ratio", Unit: "ratio", Value: ratio(float64(dict.ProgramHits+dict.DictHits), float64(dict.Lookups)), N: int(dict.Lookups)},
		{Name: "ipe.dict_unique_mb", Unit: "MB", Value: float64(dict.UniqueBytes) / 1e6, N: int(dict.UniquePrograms)},
		{Name: "quant.quantize_ms", Unit: "ms", Value: cp.quantizeMs, N: cp.passes},
		{Name: "graph.optimize_ms", Unit: "ms", Value: cp.optimizeMs, N: cp.passes},
		{Name: "nn.build_ms", Unit: "ms", Value: cp.buildMs, N: cp.passes},
		{Name: "parallel.shard2_speedup", Unit: "ratio", Value: ratio(rp.execRun1, rp.execRun2), N: dn, Note: "Executor.Run at 1 shard / at 2"},
		{Name: "parallel.inline_fallback_share", Unit: "ratio", Value: ratio(float64(snap.Pool.InlineFallbacks), float64(snap.Pool.Submitted)), N: int(snap.Pool.Submitted)},
		{Name: "metrics.enabled_overhead_pct", Unit: "%", Value: 100 * (rp.metricsOn - rp.metricsOff) / rp.metricsOff, N: dn},
		{Name: "metrics.layer_series", Unit: "count", Value: float64(len(snap.Layers)), N: 1},
		{Name: "process.gc_pause_p99_us", Unit: "us", Value: gc99, N: len(pauses), Note: percentileNote(0.99, gc99At)},
		{Name: "ledger.residual_pct", Unit: "%", N: n,
			Value: residualPct(clientUs, netUs, handlerUs, registrySelf, coalesce, rp.runBatchItems),
			Note:  "client span p50 against the sum of its parts"},
		{Name: "trace.overhead_pct", Unit: "%", Value: 100 * (tracedP50 - plainP50) / plainP50, N: len(traced.samples),
			Note: "traced against untraced latency p50"},
	}
}
