package obs

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/runtime"
)

// TestMeterAndTables runs the LeNet-5 half of the evaluation set under the
// recorder and checks the snapshot reaches every table renderer: one row
// per layer with the forced kernel, populated pool telemetry (Meter's
// sharded run guarantees it even on one core), and executor stats.
func TestMeterAndTables(t *testing.T) {
	models := EvalModels()[:1] // lenet5 only; squeezenet compile is slow
	const runs = 2
	s, err := Meter(models, runtime.Options{Force: runtime.ImplIPE, Bits: 4}, runs)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Get() != nil {
		t.Error("Meter leaked an installed recorder")
	}
	if len(s.Layers) == 0 {
		t.Fatal("no layer series metered")
	}
	for _, l := range s.Layers {
		if !strings.HasPrefix(l.Name, "lenet5/") {
			t.Errorf("layer %q missing model prefix", l.Name)
		}
		if l.Latency.Count != runs+1 { // +1 for the sharded run
			t.Errorf("%s: %d samples, want %d", l.Name, l.Latency.Count, runs+1)
		}
	}
	if s.Pool.Submitted == 0 {
		t.Error("pool telemetry empty despite the forced sharded run")
	}
	if s.Exec.Runs != int64(runs+1) || s.Exec.Builds == 0 {
		t.Errorf("exec stats runs=%d builds=%d", s.Exec.Runs, s.Exec.Builds)
	}

	lt := LayerTable("lenet5", s, "lenet5/")
	if lt.NumRows() != len(s.Layers) {
		t.Errorf("layer table rows = %d, want %d", lt.NumRows(), len(s.Layers))
	}
	var sb strings.Builder
	lt.Fprint(&sb)
	if !strings.Contains(sb.String(), "ipe-compiled") {
		t.Errorf("layer table missing forced kernel column:\n%s", sb.String())
	}
	if PoolTable(s).NumRows() != 1 || ExecTable(s).NumRows() != 1 {
		t.Error("pool/exec tables must render exactly one row")
	}
}

// TestDefaultTrafficKernelCensus pins the kernel families default-flag
// serving traffic dispatches: each evaluation model compiled through
// CompilePlan with inspire-serve's default options (serveDefaults) and run
// under a fresh recorder installed before compile, as the server does. Path
// deletions are argued from this census (DESIGN.md §15), so a change in
// implementation selection must change the golden set here deliberately.
// The same run pins what the memory planner and the step runner hand the
// ledger: the plan's arena size (runtime.arena_peak_bytes) and one executed
// step per plan operator. Factorized layers run empty-dictionary programs
// on the IPE executor, so they count as ipe-compiled here; their layer
// series carry the factorized tag. The set and the arenas read the same
// under auto selection, where 2 of lenet5's 5 layers and 21 of
// squeezenet's 26 are IPE.
func TestDefaultTrafficKernelCensus(t *testing.T) {
	want := []string{"generic", "im2col", "ipe-compiled"}
	arena := map[string]int64{"lenet5": 23520, "squeezenet": 81920}
	opts := serveDefaults()
	for _, name := range []string{"lenet5", "squeezenet"} {
		in, err := InputFor(name)
		if err != nil {
			t.Fatal(err)
		}
		rec := runtime.EnableMetrics()
		plan, err := CompilePlan(name, 0, opts)
		if err == nil {
			_, err = plan.RunBatch(in, 1)
		}
		runtime.DisableMetrics()
		if err != nil {
			t.Fatal(err)
		}
		snap := rec.Snapshot()
		var got []string
		for k := range snap.Kernels {
			got = append(got, k)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s dispatched kernel families %v, want %v", name, got, want)
		}
		if plan.ArenaBytes != arena[name] || snap.Exec.ArenaBytesPeak != arena[name] {
			t.Errorf("%s arena = %d B (recorded peak %d), want %d",
				name, plan.ArenaBytes, snap.Exec.ArenaBytesPeak, arena[name])
		}
		if len(snap.Layers) != len(plan.Ops) {
			t.Errorf("%s recorded %d layer series for %d plan ops", name, len(snap.Layers), len(plan.Ops))
		}
		factorized := 0
		for _, l := range snap.Layers {
			if l.Latency.Count != 1 {
				t.Errorf("%s step %s executed %d times in one run, want 1", name, l.Name, l.Latency.Count)
			}
			if l.Kernel == "factorized" {
				factorized++
			}
		}
		if factorized == 0 {
			t.Errorf("%s has no layer series tagged factorized", name)
		}
	}
}
