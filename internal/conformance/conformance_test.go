package conformance

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/baseline"
)

// Seed counts per case kind. Together they run well over 200 generated
// configurations through every registered implementation family (the
// acceptance bar for the differential harness).
const (
	convSeeds      = 80
	denseSeeds     = 70
	programSeeds   = 40
	graphSeeds     = 20
	sharedDictSeed = 10
)

func TestConvConformance(t *testing.T) {
	for seed := uint64(1); seed <= convSeeds; seed++ {
		if err := CheckConv(seed); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWinogradConformance runs CheckConv on the first winogradSeeds seeds
// past convSeeds whose spec Winograd F(2x2,3x3) can run, so the winograd
// family is cross-checked too: GenConv draws few dense 3×3 stride-1 specs.
func TestWinogradConformance(t *testing.T) {
	const winogradSeeds = 5
	found := 0
	for seed := uint64(convSeeds + 1); found < winogradSeeds; seed++ {
		if seed > 100*convSeeds {
			t.Fatalf("only %d Winograd-eligible seeds in (%d, %d]", found, convSeeds, seed-1)
		}
		if baseline.SupportsWinograd(GenConv(seed).Spec) != nil {
			continue
		}
		found++
		if err := CheckConv(seed); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDenseConformance(t *testing.T) {
	for seed := uint64(1); seed <= denseSeeds; seed++ {
		if err := CheckDense(seed); err != nil {
			t.Fatal(err)
		}
	}
}

func TestProgramConformance(t *testing.T) {
	for seed := uint64(1); seed <= programSeeds; seed++ {
		if err := CheckProgram(seed); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGraphConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("graph conformance compiles several plans per seed")
	}
	for seed := uint64(1); seed <= graphSeeds; seed++ {
		if err := CheckGraph(seed); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSharedDictConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("shared-dict conformance compiles several plans per seed")
	}
	for seed := uint64(1); seed <= sharedDictSeed; seed++ {
		if err := CheckSharedDict(seed); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGeneratorDeterminism pins the reproduction contract: the same seed
// must rebuild bit-identical cases, and nearby seeds must not collide.
func TestGeneratorDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		a, b := GenConv(seed), GenConv(seed)
		if a.Spec != b.Spec || a.Bits != b.Bits || a.Scheme != b.Scheme ||
			a.Sparsity != b.Sparsity || a.Cfg != b.Cfg {
			t.Fatalf("seed %d: conv config not reproducible: %+v vs %+v", seed, a, b)
		}
		for _, pair := range [][2][]float32{
			{a.Input.Data(), b.Input.Data()},
			{a.Weight.Data(), b.Weight.Data()},
		} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("seed %d: tensor sizes differ", seed)
			}
			for i := range pair[0] {
				if math.Float32bits(pair[0][i]) != math.Float32bits(pair[1][i]) {
					t.Fatalf("seed %d: tensor data not reproducible at %d", seed, i)
				}
			}
		}
		if (a.Bias == nil) != (b.Bias == nil) {
			t.Fatalf("seed %d: bias presence not reproducible", seed)
		}

		g1, g2 := GenGraph(seed), GenGraph(seed)
		if len(g1.Graph.Nodes) != len(g2.Graph.Nodes) {
			t.Fatalf("seed %d: graph node count not reproducible: %d vs %d",
				seed, len(g1.Graph.Nodes), len(g2.Graph.Nodes))
		}
		for i := range g1.Graph.Nodes {
			n1, n2 := g1.Graph.Nodes[i], g2.Graph.Nodes[i]
			if n1.Kind != n2.Kind || n1.Name != n2.Name || !n1.OutShape.Equal(n2.OutShape) {
				t.Fatalf("seed %d: graph node %d not reproducible: %s vs %s", seed, i, n1, n2)
			}
		}
	}
	a, b := GenConv(7), GenConv(8)
	if a.Spec == b.Spec && a.Bits == b.Bits && a.Cfg == b.Cfg &&
		len(a.Input.Data()) == len(b.Input.Data()) &&
		a.Input.Data()[0] == b.Input.Data()[0] {
		t.Fatal("adjacent seeds generated an identical conv case; generator is not consuming its RNG")
	}
}

// TestCheckDeterminism: re-running a check on the same seed must give the
// same verdict — that is what makes a printed seed a reproduction recipe.
func TestCheckDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		e1, e2 := CheckConv(seed), CheckConv(seed)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("seed %d: CheckConv verdict not reproducible: %v vs %v", seed, e1, e2)
		}
		if e1 != nil && e1.Error() != e2.Error() {
			t.Fatalf("seed %d: CheckConv error not reproducible:\n%v\n%v", seed, e1, e2)
		}
	}
}

// TestDivergenceReportsSeedAndBothValues pins the failure-report format:
// the seed, the element index, and both values must all be present, because
// the seed alone is the reproduction recipe.
func TestDivergenceReportsSeedAndBothValues(t *testing.T) {
	err := checkExact(12345, "impl-a", "impl-b", []float32{1, 2.5}, []float32{1, 3.25})
	if err == nil {
		t.Fatal("expected a divergence")
	}
	msg := err.Error()
	for _, want := range []string{"seed 12345", "element 1", "2.5", "3.25", "impl-a", "impl-b"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("divergence message %q missing %q", msg, want)
		}
	}

	// NaNs must never compare equal, even to themselves.
	nan := float32(math.NaN())
	if err := checkClose(1, "nan-impl", []float32{nan}, []float64{0}, []float64{1}); err == nil {
		t.Fatal("checkClose accepted a NaN")
	}
}

// TestToleranceRejectsRealErrors: the magnitude-scaled tolerance must stay
// tight enough to catch an off-by-one-element indexing bug.
func TestToleranceRejectsRealErrors(t *testing.T) {
	got := []float32{1.0, 2.0}
	ref := []float64{1.0, 2.0}
	mag := []float64{3.0, 3.0}
	if err := checkClose(1, "ok", got, ref, mag); err != nil {
		t.Fatalf("identical values rejected: %v", err)
	}
	got[1] = 2.1 // 5% off a Σ|wx|=3 element: far beyond any rounding noise
	if err := checkClose(1, "bad", got, ref, mag); err == nil {
		t.Fatal("a 0.1 absolute error on a magnitude-3 element passed the tolerance")
	}
}

func ExampleCheckConv() {
	// A failure prints the seed first; rerunning Check*(seed) rebuilds the
	// identical case.
	if err := CheckConv(3); err != nil {
		fmt.Println(err)
	} else {
		fmt.Println("seed 3 conforms")
	}
	// Output: seed 3 conforms
}
