package autotune

import (
	"math"
	"testing"

	"repro/internal/accel"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

// quadSpace is a synthetic space with a known optimum at the center of each
// dimension and a band of illegal points.
type quadSpace struct {
	dims []int
}

func (q quadSpace) Dims() []int { return q.dims }

func (q quadSpace) Eval(idx []int) (float64, bool) {
	cost := 1.0
	for d, v := range idx {
		center := q.dims[d] / 2
		cost += float64((v - center) * (v - center))
	}
	// Make the corner region illegal to exercise legality handling.
	if idx[0] == 0 && idx[1] == 0 {
		return 0, false
	}
	return cost, true
}

func (q quadSpace) optimum() float64 { return 1 }

func newQuad() quadSpace { return quadSpace{dims: []int{9, 9, 9}} }

func TestExhaustiveFindsOptimum(t *testing.T) {
	q := newQuad()
	r := Exhaustive{}.Tune(q, 0, 0)
	if r.BestCost != q.optimum() {
		t.Fatalf("exhaustive best = %v, want %v", r.BestCost, q.optimum())
	}
	if len(r.Trials) != 9*9*9 {
		t.Fatalf("exhaustive should evaluate every point, got %d", len(r.Trials))
	}
}

func TestRandomConvergesEventually(t *testing.T) {
	q := newQuad()
	r := Random{}.Tune(q, 2000, 1)
	if r.BestCost > 3 {
		t.Fatalf("random search with 2000 trials should get near 1, got %v", r.BestCost)
	}
	if len(r.Trials) != 2000 {
		t.Fatalf("budget not respected: %d trials", len(r.Trials))
	}
}

func TestGeneticBeatsRandomAtEqualBudget(t *testing.T) {
	q := newQuad()
	const budget = 120
	// Average over seeds to avoid flakiness.
	var gSum, rSum float64
	for seed := uint64(0); seed < 10; seed++ {
		gSum += Genetic{}.Tune(q, budget, seed).BestCost
		rSum += Random{}.Tune(q, budget, seed).BestCost
	}
	if gSum > rSum {
		t.Fatalf("genetic (avg %v) should beat random (avg %v) at budget %d", gSum/10, rSum/10, budget)
	}
}

func TestAnnealingFindsNearOptimum(t *testing.T) {
	q := newQuad()
	var sum float64
	for seed := uint64(0); seed < 10; seed++ {
		sum += Annealing{}.Tune(q, 400, seed).BestCost
	}
	if avg := sum / 10; avg > 2.5 {
		t.Fatalf("annealing average best = %v, want near 1", avg)
	}
}

func TestTrialsMonotoneBest(t *testing.T) {
	q := newQuad()
	for _, tn := range []Tuner{Random{}, Genetic{}, Annealing{}} {
		r := tn.Tune(q, 200, 3)
		prev := math.Inf(1)
		for _, tr := range r.Trials {
			if tr.Best > prev {
				t.Fatalf("%s: best-so-far increased at trial %d", tn.Name(), tr.Index)
			}
			prev = tr.Best
		}
	}
}

func TestBudgetRespected(t *testing.T) {
	q := newQuad()
	for _, tn := range []Tuner{Random{}, Genetic{}, Annealing{}} {
		r := tn.Tune(q, 50, 4)
		if len(r.Trials) > 50 {
			t.Fatalf("%s exceeded budget: %d trials", tn.Name(), len(r.Trials))
		}
	}
}

func TestTunersAreDeterministic(t *testing.T) {
	q := newQuad()
	for _, tn := range []Tuner{Random{}, Genetic{}, Annealing{}} {
		a := tn.Tune(q, 100, 7)
		b := tn.Tune(q, 100, 7)
		if a.BestCost != b.BestCost || len(a.Trials) != len(b.Trials) {
			t.Fatalf("%s: same seed gave different runs", tn.Name())
		}
		for i := range a.Trials {
			if a.Trials[i].Cost != b.Trials[i].Cost {
				t.Fatalf("%s: trial %d differs across runs", tn.Name(), i)
			}
		}
	}
}

func TestIllegalOnlySpace(t *testing.T) {
	// A space with no legal point must return +Inf and nil BestIdx.
	q := quadSpace{dims: []int{1, 1, 1}} // single point at (0,0,0): illegal
	r := Random{}.Tune(q, 10, 1)
	if !math.IsInf(r.BestCost, 1) || r.BestIdx != nil {
		t.Fatalf("no-legal-point space should yield +Inf, got %+v", r)
	}
}

func TestBestIdxMatchesBestCost(t *testing.T) {
	q := newQuad()
	for _, tn := range []Tuner{Random{}, Genetic{}, Annealing{}} {
		r := tn.Tune(q, 150, 9)
		c, legal := q.Eval(r.BestIdx)
		if !legal || c != r.BestCost {
			t.Fatalf("%s: BestIdx does not reproduce BestCost: %v vs %v", tn.Name(), c, r.BestCost)
		}
	}
}

func TestTuneRealScheduleSpace(t *testing.T) {
	// End-to-end: tuners on a real conv schedule space must find legal
	// schedules, and genetic must land within 30% of exhaustive.
	w := schedule.Workload{
		Spec: tensor.ConvSpec{InC: 16, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		N:    1, H: 8, W: 8,
	}
	sp := schedule.NewSpace(w, accel.Default())
	best := Exhaustive{}.Tune(sp, 0, 0).BestCost
	if math.IsInf(best, 1) {
		t.Fatal("exhaustive found no legal schedule")
	}
	got := Genetic{}.Tune(sp, 200, 1).BestCost
	if got > best*1.3 {
		t.Fatalf("genetic best %v more than 30%% off exhaustive optimum %v", got, best)
	}
}

func TestSurrogateBeatsRandomOnQuadratic(t *testing.T) {
	// The quadratic space matches the surrogate's feature class exactly,
	// so it should dominate random search decisively.
	q := newQuad()
	const budget = 80
	var sSum, rSum float64
	for seed := uint64(0); seed < 10; seed++ {
		sSum += Surrogate{}.Tune(q, budget, seed).BestCost
		rSum += Random{}.Tune(q, budget, seed).BestCost
	}
	if sSum >= rSum {
		t.Fatalf("surrogate (avg %v) should beat random (avg %v)", sSum/10, rSum/10)
	}
}

func TestSurrogateDeterministicAndBudgeted(t *testing.T) {
	q := newQuad()
	a := Surrogate{}.Tune(q, 70, 3)
	b := Surrogate{}.Tune(q, 70, 3)
	if a.BestCost != b.BestCost || len(a.Trials) != len(b.Trials) {
		t.Fatal("surrogate must be deterministic for a fixed seed")
	}
	if len(a.Trials) > 70 {
		t.Fatalf("budget exceeded: %d", len(a.Trials))
	}
}

func TestSurrogateOnRealScheduleSpace(t *testing.T) {
	w := schedule.Workload{
		Spec: tensor.ConvSpec{InC: 16, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		N:    1, H: 8, W: 8,
	}
	sp := schedule.NewSpace(w, accel.Default())
	best := Exhaustive{}.Tune(sp, 0, 0).BestCost
	got := Surrogate{}.Tune(sp, 200, 1).BestCost
	if got > best*1.5 {
		t.Fatalf("surrogate best %v more than 50%% off optimum %v", got, best)
	}
}

func TestRidgeFitRecoversLinear(t *testing.T) {
	// y = 2 + 3x fits exactly with tiny regularization.
	xs := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	ys := []float64{2, 5, 8, 11}
	w := ridgeFit(xs, ys, 1e-9)
	if len(w) != 2 || mathAbs(w[0]-2) > 1e-4 || mathAbs(w[1]-3) > 1e-4 {
		t.Fatalf("ridgeFit = %v, want [2 3]", w)
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
