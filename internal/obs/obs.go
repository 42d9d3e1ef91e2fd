// Package obs runs the evaluation models under the runtime metrics
// recorder and renders the resulting snapshots as report tables. It is the
// shared half of the serving and observability CLIs: cmd/inspire-stats is a
// thin flag wrapper around it, and cmd/inspire-serve and benchmark/ compile
// their models through it.
package obs

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/report"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// Model is one evaluation network plus a filled serving input.
type Model struct {
	Name  string
	Graph *graph.Graph
	Input *tensor.Tensor
}

// Default weight seeds for the evaluation networks: the geometries and
// weights the benchmark, the observability tables, and the serving CLIs
// agree on. GraphByName maps seed 0 here.
const (
	LeNet5Seed     = 9
	SqueezeNetSeed = 11
)

// GraphByName builds the named evaluation network with seed-derived
// weights. Seed 0 selects the model's default evaluation seed, so every
// caller — inspire-serve, inspire-stats, benchmark/ — constructs
// bit-identical graphs from the same name. Non-zero seeds produce distinct
// weight versions of the same architecture (the hot-swap registry's
// version loads).
func GraphByName(name string, seed uint64) (*graph.Graph, error) {
	switch name {
	case "lenet5":
		if seed == 0 {
			seed = LeNet5Seed
		}
		return nn.LeNet5(1, seed), nil
	case "squeezenet":
		if seed == 0 {
			seed = SqueezeNetSeed
		}
		return nn.SqueezeNet(1, 32, 10, seed), nil
	}
	return nil, fmt.Errorf("obs: unknown model %q (have lenet5, squeezenet)", name)
}

// InputFor returns the deterministic serving input for the named model
// (the same tensors EvalModels fills).
func InputFor(name string) (*tensor.Tensor, error) {
	rng := tensor.NewRNG(99)
	lin := tensor.New(1, 1, 28, 28)
	tensor.FillGaussian(lin, rng, 1)
	sin := tensor.New(1, 3, 32, 32)
	tensor.FillGaussian(sin, rng, 1)
	switch name {
	case "lenet5":
		return lin, nil
	case "squeezenet":
		return sin, nil
	}
	return nil, fmt.Errorf("obs: unknown model %q (have lenet5, squeezenet)", name)
}

// ServedOptions are the compile options of a default-flag inspire-serve
// and inspire-stats: every conv/dense layer factorized (the IPE program with
// an empty pair dictionary, D = 0) at 4 bits. No encoder configuration beat
// D = 0 on the host CPU (EXPERIMENTS.md, "Host serving: D = 0"), and it
// compiles without the pair encoder. The caller adds a DictStore.
func ServedOptions() runtime.Options {
	return runtime.Options{Force: runtime.ImplFactorized, Bits: 4}
}

// CompilePlan is the one compile path the serving and benchmarking CLIs
// share: it builds the named evaluation model at the given weight seed and
// compiles it through exactly the options the caller passes — so a plan
// served by inspire-serve and a plan measured by benchmark/ differ in
// nothing but the caller's explicit Options (Force/Bits/DictStore),
// never in model construction.
func CompilePlan(name string, seed uint64, opts runtime.Options) (*runtime.Plan, error) {
	g, err := GraphByName(name, seed)
	if err != nil {
		return nil, err
	}
	plan, err := runtime.Compile(g, opts)
	if err != nil {
		return nil, fmt.Errorf("obs: compile %s: %w", name, err)
	}
	return plan, nil
}

// EvalModels builds the two evaluation networks (LeNet-5 and the 32x32
// SqueezeNet) with deterministic weights and inputs, matching the
// geometries inspire-serve serves.
func EvalModels() []Model {
	models := make([]Model, 0, 2)
	for _, name := range []string{"lenet5", "squeezenet"} {
		g, err := GraphByName(name, 0)
		if err != nil {
			panic(err) // static names; unreachable
		}
		in, err := InputFor(name)
		if err != nil {
			panic(err)
		}
		models = append(models, Model{Name: name, Graph: g, Input: in})
	}
	return models
}

// Meter compiles each model with the given options, runs it `runs` times at
// the default parallelism plus once forced to two intra-op shards, all
// under a fresh process-wide metrics recorder (layer series prefixed
// "model/"), and returns the recorder's snapshot. The extra sharded run
// exercises the worker pool even on a single-core box (the pool keeps one
// helper token there), so the pool telemetry is never trivially empty; it
// adds one sample to every layer series. The recorder is uninstalled again
// before returning, so metering never leaks overhead into the caller's
// subsequent work.
func Meter(models []Model, opts runtime.Options, runs int) (metrics.Snapshot, error) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	for _, m := range models {
		plan, err := runtime.Compile(m.Graph, opts)
		if err != nil {
			return metrics.Snapshot{}, fmt.Errorf("obs: compile %s: %w", m.Name, err)
		}
		plan.MetricsPrefix = m.Name + "/"
		for i := 0; i < runs; i++ {
			if _, err := plan.Run(m.Input); err != nil {
				return metrics.Snapshot{}, fmt.Errorf("obs: run %s: %w", m.Name, err)
			}
		}
		e := plan.AcquireExecutor()
		e.SetParallelism(2)
		_, err = e.Run(m.Input)
		plan.ReleaseExecutor(e)
		if err != nil {
			return metrics.Snapshot{}, fmt.Errorf("obs: sharded run %s: %w", m.Name, err)
		}
	}
	return rec.Snapshot(), nil
}

// LayerTable renders the snapshot's layer series whose names start with
// prefix (all of them when prefix is empty) as one row per layer: the
// kernel family that executed it, run count, and the latency distribution.
func LayerTable(title string, s metrics.Snapshot, prefix string) *report.Table {
	t := report.NewTable(title,
		"layer", "kernel", "runs", "p50 ns", "mean ns", "max ns", "mean batch")
	for _, l := range s.Layers {
		if prefix != "" && !strings.HasPrefix(l.Name, prefix) {
			continue
		}
		t.AddRow(
			strings.TrimPrefix(l.Name, prefix),
			l.Kernel,
			report.Count(l.Latency.Count),
			report.Count(l.Latency.P50Ns),
			report.Count(l.Latency.MeanNs),
			report.Count(l.Latency.MaxNs),
			report.Num(l.MeanBatch),
		)
	}
	return t
}

// PoolTable renders the worker-pool telemetry: where parallel-for blocks
// ran (helper goroutine, inline fallback, calling goroutine), helper spawn
// latency, and token occupancy at region entry.
func PoolTable(s metrics.Snapshot) *report.Table {
	t := report.NewTable("worker pool",
		"submitted", "helper", "inline", "caller", "mean spawn wait ns",
		"mean occupancy", "max occupancy")
	p := s.Pool
	t.AddRow(
		report.Count(p.Submitted),
		report.Count(p.HelperRuns),
		report.Count(p.InlineFallbacks),
		report.Count(p.CallerRuns),
		report.Count(p.MeanSpawnWaitNs),
		report.Num(p.MeanOccupancy),
		report.Count(p.MaxOccupancy),
	)
	return t
}

// EndpointTable renders the serving-endpoint telemetry: request admission
// outcomes, batch coalescing evidence (flush count and mean/max coalesced
// batch), admission-queue high water, sustained request rate, the median
// admission-to-flush wait, and the request latency distribution. Snapshots
// from processes that never served (no endpoints registered) render a
// header-only table.
func EndpointTable(title string, s metrics.Snapshot) *report.Table {
	t := report.NewTable(title,
		"endpoint", "requests", "errors", "429", "closed", "flushes",
		"mean batch", "max batch", "queue max", "qps",
		"wait p50 ns", "p50 ns", "p99 ns", "max ns")
	for _, ep := range s.Endpoints {
		t.AddRow(
			ep.Name,
			report.Count(ep.Requests),
			report.Count(ep.Errors),
			report.Count(ep.RejectedOverload),
			report.Count(ep.RejectedClosed),
			report.Count(ep.Flushes),
			report.Num(ep.MeanBatch),
			report.Count(ep.MaxBatch),
			report.Count(ep.QueueMax),
			report.Num(ep.QPS),
			report.Count(ep.QueueWait.P50Ns),
			report.Count(ep.Latency.P50Ns),
			report.Count(ep.Latency.P99Ns),
			report.Count(ep.Latency.MaxNs),
		)
	}
	return t
}

// ModelTable renders the hot-swap registry's per-model rows: the serving
// version, completed swaps, the plan's attributable resident bytes after
// shared-dictionary interning (plus the bytes it references from programs
// another model owns), the warm executor pool size, and the model's
// serving-capacity density — QPS per GB of resident model bytes, computed
// from the model's endpoint series. Snapshots without a registry render a
// header-only table.
func ModelTable(title string, s metrics.Snapshot) *report.Table {
	eps := make(map[string]metrics.EndpointSnapshot, len(s.Endpoints))
	for _, ep := range s.Endpoints {
		eps[ep.Name] = ep
	}
	t := report.NewTable(title,
		"model", "version", "swaps", "resident", "shared refs", "pool", "qps", "qps/GB")
	for _, m := range s.Models {
		qps := eps[m.Name].QPS
		density := 0.0
		if m.ResidentBytes > 0 {
			density = qps / (float64(m.ResidentBytes) / 1e9)
		}
		t.AddRow(
			m.Name,
			report.Count(m.Version),
			report.Count(m.Swaps),
			report.Bytes(m.ResidentBytes),
			report.Bytes(m.SharedBytes),
			report.Count(m.PoolExecutors),
			report.Num(qps),
			report.Num(density),
		)
	}
	return t
}

// SharedDictTable renders the shared dictionary store's dedup gauges: how
// many encode results were interned, how many of them hit a canonical
// program, and the byte ledger (unique resident vs saved by interning).
func SharedDictTable(s metrics.Snapshot) *report.Table {
	t := report.NewTable("shared dictionary store",
		"lookups", "program hits", "unique programs",
		"unique bytes", "saved bytes")
	if d := s.SharedDict; d != nil {
		t.AddRow(
			report.Count(d.Lookups),
			report.Count(d.ProgramHits),
			report.Count(d.UniquePrograms),
			report.Bytes(d.UniqueBytes),
			report.Bytes(d.SavedBytes),
		)
	}
	return t
}

// Capacity computes the snapshot's serving-capacity figure of merit:
// models × aggregate QPS per GB of total resident model bytes. Shared
// dictionaries raise it twice — once because each model's resident bytes
// shrink, once because more models fit the same GB. Returns 0 when the
// snapshot has no registry rows or no traffic.
func Capacity(s metrics.Snapshot) float64 {
	var resident int64
	var qps float64
	eps := make(map[string]metrics.EndpointSnapshot, len(s.Endpoints))
	for _, ep := range s.Endpoints {
		eps[ep.Name] = ep
	}
	for _, m := range s.Models {
		resident += m.ResidentBytes
		qps += eps[m.Name].QPS
	}
	if resident == 0 || qps == 0 {
		return 0
	}
	return float64(len(s.Models)) * qps / (float64(resident) / 1e9)
}

// ExecTable renders the executor/arena telemetry: pooling behavior, run
// counts, arena residency, the largest single plan arena built, and the
// kernel-scratch high-water mark.
func ExecTable(s metrics.Snapshot) *report.Table {
	t := report.NewTable("executors",
		"acquires", "reuses", "builds", "runs", "mean run ns",
		"arena resident", "arena peak", "scratch high water")
	e := s.Exec
	t.AddRow(
		report.Count(e.Acquires),
		report.Count(e.PoolReuses),
		report.Count(e.Builds),
		report.Count(e.Runs),
		report.Count(e.RunLatency.MeanNs),
		report.Bytes(e.ArenaBytesResident),
		report.Bytes(e.ArenaBytesPeak),
		report.Bytes(e.ScratchHighWater*4),
	)
	return t
}
