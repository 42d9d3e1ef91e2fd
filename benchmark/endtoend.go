package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// warmUp is how long a fresh server is driven before the measured window, so
// executor pools, connections and lazily built state are in place.
const warmUp = 2 * time.Second

// sideBoots is how many throw-away servers are booted (and stopped) before
// the measured one and again after it, so setup_s is a median of
// 2*sideBoots+1 boots taken at both ends of the run: the sandbox drifts
// between faster and slower stretches of tens of seconds, and boots taken
// back to back would all sample one of them.
//
// On workloads that never swap, each throw-away server also performs
// idleSwaps hot swaps of swapModel with no traffic, which is where their
// swap_p50_ms comes from. The first swap of a fresh process runs cold, so
// several are needed for the median to be a warm one; and a lenet5 swap
// (~15 ms) is mostly fixed overhead that spread 15-25% from run to run, so
// the idle swap is of squeezenet whatever the workload's model.
const (
	sideBoots = 3
	idleSwaps = 4
	swapModel = "squeezenet"
)

// prepared is a workload's seeded inputs and expected outputs.
type prepared struct {
	pool   []*tensor.Tensor
	bodies [][]byte
	oracle oracle
}

// prepareWorkload generates the inputs from the seed and computes, before
// anything is timed, the expected output of every request the run can send.
func prepareWorkload(w Workload, seed uint64, span time.Duration) (*prepared, error) {
	pool, boot, err := buildPool(seed, w.Model)
	if err != nil {
		return nil, err
	}
	p := &prepared{pool: pool}
	if p.bodies, err = w.bodies(pool); err != nil {
		return nil, err
	}
	swaps := 0
	if w.SwapEvery > 0 {
		swaps = int(span / w.SwapEvery)
	}
	if p.oracle, err = buildOracle(w, seed, pool, boot, swaps); err != nil {
		return nil, err
	}
	return p, nil
}

// summarize turns a load run into the Result's counts and verdict. snap is
// the server's own view after the run: its count of completed requests for
// the model must equal the replies the client accepted (warm-up included) —
// a reply the client verified but the server never counted, or the reverse,
// is a fault.
func summarize(w Workload, lr *loadResult, snap metrics.Snapshot) *Result {
	r := &Result{
		Workload:  w.Name,
		Attempted: lr.attempted,
		Failed:    lr.rejected + lr.failed + lr.warmFailed + lr.swapFailed,
		Err:       lr.firstErr,
	}
	r.Detail = fmt.Sprintf("attempted=%d ok=%d rejected=%d failed=%d (warm-up failures=%d, failed swaps=%d, swaps=%d)",
		lr.attempted, lr.ok, lr.rejected, lr.failed, lr.warmFailed, lr.swapFailed, len(lr.swaps))
	r.Correct = r.Failed == 0 && lr.attempted > 0 && lr.ok+lr.rejected+lr.failed == lr.attempted
	if lr.attempted == 0 && r.Err == nil {
		r.Err = fmt.Errorf("no request fell inside the measured window")
	}
	if served := endpointOf(snap, w.Model).Requests; served != int64(lr.okAll) {
		r.Correct = false
		if r.Err == nil {
			r.Err = fmt.Errorf("server counts %d completed %s requests, client verified %d", served, w.Model, lr.okAll)
		}
	}
	return r
}

// endpointOf finds the model's endpoint series (zero value if absent).
func endpointOf(snap metrics.Snapshot, model string) metrics.EndpointSnapshot {
	for _, ep := range snap.Endpoints {
		if ep.Name == model {
			return ep
		}
	}
	return metrics.EndpointSnapshot{}
}

// latenciesMs lists the client-observed latency of every verified reply.
func latenciesMs(lr *loadResult) []float64 {
	var xs []float64
	for _, s := range lr.samples {
		if s.outcome == outcomeOK {
			xs = append(xs, ms(s.latency()))
		}
	}
	return xs
}

// runEndToEnd measures the end-to-end metrics of one workload with tracing
// off, against the unmodified inspire-serve binary.
func runEndToEnd(e *env, w Workload, seed uint64, measure time.Duration) (*Result, error) {
	p, err := prepareWorkload(w, seed, warmUp+measure)
	if err != nil {
		return nil, err
	}

	var setups, idle []float64
	swapsDone := 0
	throwAway := func() error {
		for i := 0; i < sideBoots; i++ {
			c, err := bootServer(e.serverBin)
			if err != nil {
				return err
			}
			setups = append(setups, c.setup.Seconds())
			for k := 0; k < idleSwaps && w.SwapEvery == 0; k++ {
				swapsDone++
				took, _, err := c.swap(swapModel, swapSeed(seed, swapsDone))
				if err != nil {
					c.kill()
					return err
				}
				idle = append(idle, ms(took))
			}
			if err := c.stop(); err != nil {
				return err
			}
		}
		return nil
	}

	if err := throwAway(); err != nil {
		return nil, err
	}
	c, err := bootServer(e.serverBin)
	if err != nil {
		return nil, err
	}
	setups = append(setups, c.setup.Seconds())
	lr := runLoad(c, w, seed, p.bodies, p.oracle, warmUp, measure)
	snap, snapErr := c.snapshot()
	rss, rssErr := c.peakRSS()
	if err := c.stop(); err != nil {
		return nil, err
	}
	if err := errors.Join(snapErr, rssErr); err != nil {
		return nil, err
	}
	if err := throwAway(); err != nil {
		return nil, err
	}

	r := summarize(w, lr, snap)
	r.Metrics = endToEndMetrics(w, lr, setups, idle, rss)
	return r, nil
}

// endToEndMetrics assembles the end-to-end metrics, in BENCHMARK.json order.
// setups are boot times in seconds, idle swap times in milliseconds on
// servers without traffic, rss the measured server's peak resident bytes.
func endToEndMetrics(w Workload, lr *loadResult, setups, idle []float64, rss int64) []Metric {
	lat := latenciesMs(lr)
	swapMs, swapNote := idle, "swaps of "+swapModel+" on idle throw-away servers, before and after the load"
	if w.SwapEvery > 0 {
		swapMs, swapNote = nil, "swap beside predict traffic"
		for _, d := range lr.swaps {
			swapMs = append(swapMs, ms(d))
		}
	}
	return []Metric{
		{Name: "setup_s", Unit: "s", Value: median(setups), N: len(setups)},
		{Name: "latency_p50_ms", Unit: "ms", Value: median(lat), N: len(lat)},
		{Name: "throughput_items_s", Unit: "items/s", Value: float64(lr.ok*w.Items) / lr.measured.Seconds(), N: lr.ok},
		{Name: "peak_rss_mb", Unit: "MB", Value: float64(rss) / 1e6, N: 1},
		{Name: "swap_p50_ms", Unit: "ms", Value: median(swapMs), N: len(swapMs), Note: swapNote},
	}
}
