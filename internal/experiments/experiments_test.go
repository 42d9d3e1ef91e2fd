package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// runFast executes an experiment in Fast mode and returns its output.
func runFast(t *testing.T, id string) string {
	t.Helper()
	var buf bytes.Buffer
	cfg := Config{Out: &buf, Fast: true}
	if err := Run(id, cfg); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if buf.Len() == 0 {
		t.Fatalf("%s produced no output", id)
	}
	return buf.String()
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4", "table5", "table6",
		"fig4", "fig5", "fig6a", "fig6b", "fig6c", "fig7", "fig8", "fig9", "fig10", "fig11"}
	reg := Registry()
	for _, id := range want {
		if reg[id] == nil {
			t.Errorf("missing experiment %q", id)
		}
	}
	if len(reg) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(reg), len(want))
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := Run("nope", Config{Fast: true}); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestTable1(t *testing.T) {
	out := runFast(t, "table1")
	for _, want := range []string{"ResNet-18", "LeNet-5", "MACs", "vals@4b"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	out := runFast(t, "table2")
	for _, want := range []string{"c1", "dense", "ucnn", "ipe/dense"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3(t *testing.T) {
	out := runFast(t, "table3")
	for _, want := range []string{"rounds", "dict", "stream-compr"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table3 missing %q:\n%s", want, out)
		}
	}
}

func TestTable4(t *testing.T) {
	out := runFast(t, "table4")
	for _, want := range []string{"dense", "csr", "ucnn", "ipe", "energy(uJ)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table4 missing %q:\n%s", want, out)
		}
	}
}

func TestFig4(t *testing.T) {
	out := runFast(t, "fig4")
	if !strings.Contains(out, "ipe") || !strings.Contains(out, "layer") {
		t.Fatalf("fig4 output malformed:\n%s", out)
	}
}

// TestFig5 pins the fast-mode LeNet-5 row of Fig 5, every column including
// the auto-tuned dense schedule and the auto selection, and checks that
// tuning never models dense slower than the heuristic schedule.
func TestFig5(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig5", Config{Out: &buf, Fast: true, CSV: true}); err != nil {
		t.Fatal(err)
	}
	var cols []string
	if lines := strings.Split(buf.String(), "\n"); len(lines) > 1 {
		cols = strings.Split(lines[1], ",")
	}
	if len(cols) < 3 {
		t.Fatalf("fig5 fast output has no data row:\n%s", buf.String())
	}
	dense, errD := strconv.ParseFloat(cols[1], 64)
	tuned, errT := strconv.ParseFloat(cols[2], 64)
	if errD != nil || errT != nil || tuned > dense {
		t.Fatalf("dense-tuned %q must not exceed dense %q", cols[2], cols[1])
	}
	const want = "model,dense,dense-tuned,winograd,csr,ucnn,ipe,auto,auto impls\n" +
		"LeNet-5,29.943,24.125,29.943,24.418,11.789,10.723,10.710,d:0 c:0 u:3 i:2\n"
	if buf.String() != want {
		t.Fatalf("fig5 fast output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestFig6a(t *testing.T) {
	out := runFast(t, "fig6a")
	if !strings.Contains(out, "bits") || !strings.Contains(out, "ipe") {
		t.Fatalf("fig6a malformed:\n%s", out)
	}
}

func TestFig6b(t *testing.T) {
	out := runFast(t, "fig6b")
	if !strings.Contains(out, "maxDict") || !strings.Contains(out, "liveDict") {
		t.Fatalf("fig6b malformed:\n%s", out)
	}
}

func TestFig6c(t *testing.T) {
	out := runFast(t, "fig6c")
	if !strings.Contains(out, "sparsity%") || !strings.Contains(out, "csr") {
		t.Fatalf("fig6c malformed:\n%s", out)
	}
}

func TestFig7(t *testing.T) {
	out := runFast(t, "fig7")
	for _, want := range []string{"random", "genetic", "annealing", "surrogate", "trials"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig7 missing %q:\n%s", want, out)
		}
	}
}

func TestFig8(t *testing.T) {
	out := runFast(t, "fig8")
	for _, want := range []string{"default", "global", "depth L=1", "greedy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig8 missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllFast(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll covers every driver; individual tests cover them in -short")
	}
	var buf bytes.Buffer
	if err := RunAll(Config{Out: &buf, Fast: true}); err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		if !strings.Contains(buf.String(), "===== "+id+" =====") {
			t.Fatalf("RunAll missing section %s", id)
		}
	}
}

func TestUniqueConvsGroupsResNet(t *testing.T) {
	cfg := Config{Fast: true}.withDefaults()
	convs, err := resnetUniqueConvs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(convs) == 0 {
		t.Fatal("no unique convs found")
	}
	// ResNet-18 at any input size has 20 convs but far fewer unique
	// shapes; Fast mode trims to at most 6.
	if len(convs) > 6 {
		t.Fatalf("fast mode should trim to 6 unique convs, got %d", len(convs))
	}
	seen := map[string]bool{}
	for _, c := range convs {
		if seen[c.ID] {
			t.Fatalf("duplicate ID %s", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.HW != 64 || c.Bits != 4 || c.Seed != 1 || c.Accel.PEs == 0 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	f := Config{Fast: true}.withDefaults()
	if f.HW != 32 {
		t.Fatalf("fast default HW = %d, want 32", f.HW)
	}
}

func TestTable5(t *testing.T) {
	out := runFast(t, "table5")
	for _, want := range []string{"dense-fp32", "packed-dense", "ipe-stream", "total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table5 missing %q:\n%s", want, out)
		}
	}
}

func TestTable6(t *testing.T) {
	out := runFast(t, "table6")
	for _, want := range []string{"sep-dict", "shared-dict", "dict-saving"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table6 missing %q:\n%s", want, out)
		}
	}
}

func TestFig9(t *testing.T) {
	out := runFast(t, "fig9")
	for _, want := range []string{"banks", "tile-local", "global"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig9 missing %q:\n%s", want, out)
		}
	}
}

func TestFig10(t *testing.T) {
	out := runFast(t, "fig10")
	for _, want := range []string{"PEs", "GB/s", "ipe/dense"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig10 missing %q:\n%s", want, out)
		}
	}
}

func TestFig11(t *testing.T) {
	out := runFast(t, "fig11")
	for _, want := range []string{"gaussian", "uniform", "laplacian", "bimodal", "ipe-speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig11 missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// Every driver must print byte-identical output across runs — the
	// whole evaluation is seeded.
	for _, id := range []string{"table2", "fig4", "fig6b", "fig7"} {
		a := runFast(t, id)
		b := runFast(t, id)
		if a != b {
			t.Fatalf("%s output differs across runs", id)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table1", Config{Out: &buf, Fast: true, CSV: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "model,convs,params") {
		t.Fatalf("CSV header missing:\n%s", out)
	}
	if strings.Contains(out, "---") {
		t.Fatal("CSV output must not contain table rules")
	}
	buf.Reset()
	if err := Run("fig6a", Config{Out: &buf, Fast: true, CSV: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bits,ipe,ucnn") {
		t.Fatalf("figure CSV header missing:\n%s", buf.String())
	}
}
