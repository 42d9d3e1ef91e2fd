package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/graph"
	"repro/internal/ipe"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Below the provider nothing can be wrapped from outside, so the layers
// there are timed by calling their public functions directly, in the
// harness process, on plans compiled exactly as the server compiles them.
// The server child is stopped while these run.

// timed calls fn for about budget (at least three times), after two untimed
// calls that fault in whatever fn touches first, and returns each call's
// duration in microseconds.
func timed(budget time.Duration, fn func() error) ([]float64, error) {
	for i := 0; i < 2; i++ {
		if err := fn(); err != nil {
			return nil, err
		}
	}
	var us []float64
	for begin := time.Now(); len(us) < 3 || time.Since(begin) < budget; {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return us, nil
}

// compileParts is where one model's compile time goes, from direct calls.
type compileParts struct {
	buildMs, optimizeMs, quantizeMs, encodeMs, lowerMs float64
	compileMs                                          float64 // obs.CompilePlan as the server calls it (parallel over layers)
	compileSerialMs                                    float64 // the same with one worker, comparable to the serial parts above
	passes                                             int
	// Exact operation counts for one inference with every conv/dense layer
	// index-pair encoded: the paper's primary quantity.
	ipeAdds, denseMACs int64
}

// measureCompile times the modules a compile (boot or hot swap) runs through:
// the first pass on the boot weights, which also fixes the operation counts
// whatever the run's seed, the others on never-seen weight seeds the way
// successive swaps see them.
func measureCompile(model string, seed uint64, passes int) (compileParts, error) {
	var build, optimize, quantize, encode, lower, compile, serial []float64
	var cp compileParts
	cp.passes = passes
	opts := serveOptions(nil)
	bits, cfg := opts.Bits, ipe.DefaultConfig()
	dict := ipe.NewDictStore()
	for pass := 0; pass < passes; pass++ {
		ws := uint64(0)
		if pass > 0 {
			ws = swapSeed(seed, 500+pass)
		}

		t0 := time.Now()
		g, err := obs.GraphByName(model, ws)
		if err != nil {
			return cp, err
		}
		build = append(build, ms(time.Since(t0)))

		t0 = time.Now()
		if err := graph.Optimize(g); err != nil {
			return cp, err
		}
		optimize = append(optimize, ms(time.Since(t0)))

		var tq, te, tl time.Duration
		var adds, macs int64
		for _, n := range g.Topo() {
			if n.Kind != graph.OpConv && n.Kind != graph.OpDense {
				continue
			}
			w, bias := n.Param("weight"), n.Param("bias")
			t0 = time.Now()
			quant.Quantize(w, bits, quant.PerChannel)
			tq += time.Since(t0)

			var progs []*ipe.Program
			t0 = time.Now()
			if n.Kind == graph.OpConv {
				l, _, err := ipe.EncodeConv(w, bias, n.Attrs.Conv, bits, quant.PerChannel, cfg)
				if err != nil {
					return cp, err
				}
				te += time.Since(t0)
				progs = l.Programs
				in := n.Inputs[0].OutShape
				adds += l.Cost(in[0], in[2], in[3]).Adds
				oh, ow := l.Spec.OutDims(in[2], in[3])
				macs += int64(in[0]*oh*ow) * int64(w.NumElements())
			} else {
				l, _, err := ipe.EncodeDense(w, bias, bits, quant.PerChannel, cfg)
				if err != nil {
					return cp, err
				}
				te += time.Since(t0)
				progs = []*ipe.Program{l.Program}
				batch := int64(n.Inputs[0].OutShape[0])
				adds += batch * l.Program.Cost().Adds
				macs += batch * int64(w.NumElements())
			}
			t0 = time.Now()
			for _, p := range progs {
				p.Compiled()
			}
			tl += time.Since(t0)
		}
		quantize = append(quantize, ms(tq))
		encode = append(encode, ms(te))
		lower = append(lower, ms(tl))
		if pass == 0 {
			cp.ipeAdds, cp.denseMACs = adds, macs
		}

		t0 = time.Now()
		if _, err := obs.CompilePlan(model, ws, serveOptions(dict)); err != nil {
			return cp, err
		}
		compile = append(compile, ms(time.Since(t0)))

		one := serveOptions(dict)
		one.Workers = 1
		t0 = time.Now()
		if _, err := obs.CompilePlan(model, swapSeed(seed, 600+pass), one); err != nil {
			return cp, err
		}
		serial = append(serial, ms(time.Since(t0)))
	}
	cp.buildMs, cp.optimizeMs = median(build), median(optimize)
	cp.quantizeMs, cp.encodeMs, cp.lowerMs = median(quantize), median(encode), median(lower)
	cp.compileMs, cp.compileSerialMs = median(compile), median(serial)
	return cp, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runParts is where one predict's time goes below the provider, from direct
// calls on a plan compiled like the server's, in microseconds (medians).
type runParts struct {
	execRun, execRun1, execRun2 float64 // Executor.Run at default / 1 / 2 shards
	acquire                     float64 // AcquireExecutor+ReleaseExecutor pair
	runBatch1, runBatch8        float64 // Plan.RunBatch of 1 and 8 items
	runBatchItems               float64 // Plan.RunBatch of the workload's item count
	submit                      float64 // Batcher.Submit of the workload's item count
	jsonDecode, jsonEncode      float64 // encoding/json on the workload's bodies
	metricsOn, metricsOff       float64 // Executor.Run with and without a recorder
	n                           int     // smallest sample count behind any of the above
	swapMs                      float64 // Registry.Swap on an idle registry
	swapDrainMs                 float64 // the part of it that is not the compile
	swapN                       int
}

// batchOf tiles the pool into one input of items compiled-batch items.
func batchOf(pool []*tensor.Tensor, items int) *tensor.Tensor {
	shape := append([]int(nil), pool[0].Shape()...)
	shape[0] *= items
	t := tensor.New(shape...)
	off := 0
	for i := 0; i < items; i++ {
		off += copy(t.Data()[off:], pool[i%len(pool)].Data())
	}
	return t
}

// measureRun times the predict path's layers for workload w. budget is the
// time each timing loop may take.
func measureRun(w Workload, seed uint64, pool []*tensor.Tensor, body []byte, budget time.Duration) (runParts, error) {
	var rp runParts
	rp.n = 1 << 30
	med := func(fn func() error) (float64, error) {
		us, err := timed(budget, fn)
		if err != nil {
			return 0, err
		}
		if len(us) < rp.n {
			rp.n = len(us)
		}
		return median(us), nil
	}

	// The server runs with metrics on; so do these timings, until the
	// on/off comparison at the end.
	var compiled time.Duration // the registry's most recent compile
	reg, err := newServedRegistry(func(d time.Duration) { compiled = d })
	if err != nil {
		return rp, err
	}
	defer reg.Close()
	m, _ := reg.Model(w.Model)
	plan := m.Current().Plan
	one, eight, items := pool[0], batchOf(pool, 8), batchOf(pool, w.Items)

	e := plan.AcquireExecutor()
	run := func() error { _, err := e.Run(one); return err }
	if rp.execRun, err = med(run); err != nil {
		return rp, err
	}
	e.SetParallelism(1)
	if rp.execRun1, err = med(run); err != nil {
		return rp, err
	}
	e.SetParallelism(2)
	if rp.execRun2, err = med(run); err != nil {
		return rp, err
	}
	plan.ReleaseExecutor(e)

	const pairs = 10000
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		plan.ReleaseExecutor(plan.AcquireExecutor())
	}
	rp.acquire = float64(time.Since(t0).Nanoseconds()) / 1e3 / pairs

	batch := func(in *tensor.Tensor) func() error {
		return func() error { _, err := plan.RunBatch(in, servedConfig.Workers); return err }
	}
	if rp.runBatch1, err = med(batch(one)); err != nil {
		return rp, err
	}
	if rp.runBatch8, err = med(batch(eight)); err != nil {
		return rp, err
	}
	if rp.runBatchItems, err = med(batch(items)); err != nil {
		return rp, err
	}
	if rp.submit, err = med(func() error { _, err := m.Current().Batcher.Submit(items); return err }); err != nil {
		return rp, err
	}

	if rp.jsonDecode, err = med(func() error {
		var req serve.PredictRequest
		return json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	}); err != nil {
		return rp, err
	}
	out, err := plan.RunBatch(items, servedConfig.Workers)
	if err != nil {
		return rp, err
	}
	resp := serve.PredictResponse{Model: w.Model, Version: 1, Shape: out.Shape(), Data: out.Data(), LatencyNs: 1}
	if rp.jsonEncode, err = med(func() error { return json.NewEncoder(io.Discard).Encode(resp) }); err != nil {
		return rp, err
	}

	var swaps, drains []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		if _, err := reg.Swap(w.Model, swapSeed(seed, 700+k)); err != nil {
			return rp, err
		}
		swap := time.Since(t0)
		swaps = append(swaps, ms(swap))
		drains = append(drains, ms(swap-compiled))
	}
	rp.swapMs, rp.swapDrainMs, rp.swapN = median(swaps), median(drains), len(swaps)

	// Recorder on against recorder off, on two executors of one plan built
	// either side of the switch (an executor resolves its recorder when it
	// is built). Alternating blocks keep drift out of the comparison.
	plan, err = obs.CompilePlan(w.Model, 0, serveOptions(nil))
	if err != nil {
		return rp, err
	}
	on := plan.NewExecutor()
	runtime.DisableMetrics()
	off := plan.NewExecutor()
	var onUs, offUs []float64
	for block := 0; block < 4; block++ {
		for _, side := range []struct {
			e   *runtime.Executor
			dst *[]float64
		}{{on, &onUs}, {off, &offUs}} {
			us, err := timed(budget/4, func() error { _, err := side.e.Run(one); return err })
			if err != nil {
				return rp, err
			}
			*side.dst = append(*side.dst, us...)
		}
	}
	rp.metricsOn, rp.metricsOff = median(onUs), median(offUs)
	if rp.metricsOff == 0 {
		return rp, fmt.Errorf("metrics-off run measured as 0us")
	}
	return rp, nil
}
