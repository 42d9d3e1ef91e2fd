package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// smokeEnv builds inspire-serve and this harness (the traced server is the
// harness binary re-executed, which a test binary cannot stand in for).
func smokeEnv(t *testing.T) *env {
	t.Helper()
	if testing.Short() {
		t.Skip("boots real servers; skipped under -short")
	}
	e, err := prepare("..")
	if err != nil {
		t.Fatal(err)
	}
	e.selfBin = filepath.Join(t.TempDir(), "harness")
	if out, err := exec.Command("go", "build", "-o", e.selfBin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building the harness: %v\n%s", err, out)
	}
	return e
}

// The full path at one measured second per workload: every workload serves,
// every reply passes the oracle, every metric has a value.
func TestSmokeEndToEnd(t *testing.T) {
	e := smokeEnv(t)
	for _, w := range workloads {
		r, err := runEndToEnd(e, w, 1, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d first failure: %v", w.Name, r.Correct, r.Attempted, r.Failed, r.Err)
		}
		for _, m := range r.Metrics {
			if !(m.Value > 0) || m.N == 0 {
				t.Errorf("%s: %s = %v (n=%d); end-to-end metrics are never 0", w.Name, m.Name, m.Value, m.N)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	e := smokeEnv(t)
	w, _ := workloadByName("mixed_swap")
	r, err := runTraced(e, w, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 {
		t.Errorf("correct=%v failed=%d first failure: %v", r.Correct, r.Failed, r.Err)
	}
	vals := make(map[string]Metric)
	for _, m := range r.Metrics {
		vals[m.Name] = m
	}
	for _, name := range []string{"net.http_overhead_us", "serve.handler_self_us", "serve.json_decode_us",
		"runtime.exec_run_us", "runtime.compile_ms", "ipe.kernel_us", "ipe.adds_per_inference", "registry.swap_ms"} {
		if m := vals[name]; !(m.Value > 0) || m.N == 0 {
			t.Errorf("%s = %v (n=%d)", name, m.Value, m.N)
		}
	}
	if m := vals["ledger.residual_pct"]; !(m.Value <= 10) {
		t.Errorf("ledger residual %v%% is above 10%%: the spans do not add up", m.Value)
	}
}

// A wrong expected table must fail the run: the check is live, not vacuous.
func TestSmokeCorruptedOracleFails(t *testing.T) {
	e := smokeEnv(t)
	w, _ := workloadByName("squeezenet_closed1")
	p, err := prepareWorkload(w, 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p.oracle[1].outputs[3][0] += 0.05 // pool input 3, class 0
	c, err := bootServer(e.serverBin)
	if err != nil {
		t.Fatal(err)
	}
	lr := runLoad(c, w, 1, p.bodies, p.oracle, 0, 2*time.Second)
	snap, snapErr := c.snapshot()
	if err := c.stop(); err != nil {
		t.Fatal(err)
	}
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	r := summarize(w, lr, snap)
	if r.Correct || r.Failed == 0 || r.Err == nil {
		t.Fatalf("corrupted oracle went unnoticed: correct=%v failed=%d err=%v", r.Correct, r.Failed, r.Err)
	}
	// Only the requests carrying pool input 3 fail: one in poolSize.
	if want := lr.attempted / poolSize; r.Failed < want-1 || r.Failed > want+1 {
		t.Errorf("%d of %d requests failed, want about %d", r.Failed, lr.attempted, want)
	}
	if lr.ok+lr.rejected+lr.failed != lr.attempted {
		t.Errorf("ok %d + rejected %d + failed %d != attempted %d", lr.ok, lr.rejected, lr.failed, lr.attempted)
	}
}
