// Package autotune implements the offline schedule search algorithms of the
// INSPIRE stack: random search, a genetic algorithm, simulated annealing and
// a ridge-regression surrogate, all operating over an abstract discrete
// search space (in practice the schedule.Space tiling grid). An exhaustive
// searcher provides ground truth on small spaces. The tuners run before
// deployment (Fig 7, cmd/inspire-tune, examples/autotune); nothing here
// touches a served plan, which runs exactly what runtime.Compile selected.
package autotune

import (
	"math"
	"sort"

	"repro/internal/tensor"
)

// Space is a discrete multi-dimensional search space with a cost oracle.
type Space interface {
	// Dims returns the cardinality of each decision dimension.
	Dims() []int
	// Eval returns the cost of the point (lower is better) and whether the
	// point is legal. Illegal points have undefined cost.
	Eval(idx []int) (float64, bool)
}

// Trial records one evaluated point for convergence analysis.
type Trial struct {
	// Index is the 0-based trial number.
	Index int
	// Cost is the point's cost; +Inf for illegal points.
	Cost float64
	// Best is the best legal cost seen up to and including this trial.
	Best float64
}

// Result is the outcome of a tuning run.
type Result struct {
	// BestIdx is the best legal point found (nil if none).
	BestIdx []int
	// BestCost is its cost (+Inf if no legal point was found).
	BestCost float64
	// Trials is the per-evaluation convergence trace.
	Trials []Trial
}

// Tuner searches a Space within an evaluation budget.
type Tuner interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Tune runs at most budget evaluations with the given seed.
	Tune(s Space, budget int, seed uint64) Result
}

// recorder accumulates trials and tracks the incumbent.
type recorder struct {
	res Result
}

func newRecorder() *recorder {
	return &recorder{res: Result{BestCost: math.Inf(1)}}
}

func (r *recorder) record(s Space, idx []int) (cost float64, legal bool) {
	cost, legal = s.Eval(idx)
	c := cost
	if !legal {
		c = math.Inf(1)
	}
	if legal && c < r.res.BestCost {
		r.res.BestCost = c
		r.res.BestIdx = append([]int(nil), idx...)
	}
	r.res.Trials = append(r.res.Trials, Trial{
		Index: len(r.res.Trials),
		Cost:  c,
		Best:  r.res.BestCost,
	})
	return cost, legal
}

func (r *recorder) spent() int { return len(r.res.Trials) }

func randomPoint(rng *tensor.RNG, dims []int) []int {
	idx := make([]int, len(dims))
	for i, d := range dims {
		idx[i] = rng.Intn(d)
	}
	return idx
}

// Random is uniform random search, the weakest baseline of Figure 7.
type Random struct{}

// Name implements Tuner.
func (Random) Name() string { return "random" }

// Tune implements Tuner.
func (Random) Tune(s Space, budget int, seed uint64) Result {
	rng := tensor.NewRNG(seed)
	rec := newRecorder()
	dims := s.Dims()
	for rec.spent() < budget {
		rec.record(s, randomPoint(rng, dims))
	}
	return rec.res
}

// Exhaustive evaluates every point of the space (ignoring the budget). Use
// only on small spaces; it provides the ground-truth optimum the
// convergence plots normalize against.
type Exhaustive struct{}

// Name implements Tuner.
func (Exhaustive) Name() string { return "exhaustive" }

// Tune implements Tuner.
func (Exhaustive) Tune(s Space, _ int, _ uint64) Result {
	rec := newRecorder()
	dims := s.Dims()
	idx := make([]int, len(dims))
	for {
		rec.record(s, idx)
		// Odometer increment.
		d := len(dims) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < dims[d] {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			return rec.res
		}
	}
}

// Genetic is the genetic-algorithm tuner: tournament-free
// fitness-proportional selection with elitism, uniform crossover and
// per-gene mutation, following the classic formulation.
type Genetic struct {
	// Population is the per-generation population size (default 24).
	Population int
	// Elites survive unchanged each generation (default 4).
	Elites int
	// MutationRate is the per-gene mutation probability (default 0.15).
	MutationRate float64
}

// Name implements Tuner.
func (Genetic) Name() string { return "genetic" }

func (g Genetic) defaults() Genetic {
	if g.Population <= 0 {
		g.Population = 24
	}
	if g.Elites <= 0 {
		g.Elites = 4
	}
	if g.Elites > g.Population {
		g.Elites = g.Population
	}
	if g.MutationRate <= 0 {
		g.MutationRate = 0.15
	}
	return g
}

// Tune implements Tuner.
func (g Genetic) Tune(s Space, budget int, seed uint64) Result {
	g = g.defaults()
	rng := tensor.NewRNG(seed)
	rec := newRecorder()
	dims := s.Dims()

	type indiv struct {
		idx  []int
		cost float64
	}
	pop := make([]indiv, 0, g.Population)
	for len(pop) < g.Population && rec.spent() < budget {
		p := randomPoint(rng, dims)
		c, legal := rec.record(s, p)
		if !legal {
			c = math.Inf(1)
		}
		pop = append(pop, indiv{p, c})
	}
	for rec.spent() < budget {
		sort.SliceStable(pop, func(i, j int) bool { return pop[i].cost < pop[j].cost })
		next := make([]indiv, 0, g.Population)
		next = append(next, pop[:min(g.Elites, len(pop))]...)
		// Fitness-proportional (roulette-wheel) selection over inverse
		// cost; illegal individuals get epsilon fitness.
		fitness := make([]float64, len(pop))
		var sum float64
		for i, in := range pop {
			f := 1e-9
			if !math.IsInf(in.cost, 1) && in.cost > 0 {
				f = 1 / in.cost
			}
			fitness[i] = f
			sum += f
		}
		pick := func() indiv {
			v := rng.Float64() * sum
			for i, f := range fitness {
				v -= f
				if v <= 0 {
					return pop[i]
				}
			}
			return pop[len(pop)-1]
		}
		for len(next) < g.Population && rec.spent() < budget {
			a, b := pick(), pick()
			child := make([]int, len(dims))
			for d := range dims {
				if rng.Intn(2) == 0 {
					child[d] = a.idx[d]
				} else {
					child[d] = b.idx[d]
				}
				if rng.Float64() < g.MutationRate {
					child[d] = rng.Intn(dims[d])
				}
			}
			c, legal := rec.record(s, child)
			if !legal {
				c = math.Inf(1)
			}
			next = append(next, indiv{child, c})
		}
		pop = next
	}
	return rec.res
}

// Annealing is simulated annealing over the index grid with single-step
// neighbor moves and a geometric cooling schedule.
type Annealing struct {
	// InitTemp is the starting temperature relative to the first legal
	// cost (default 0.3).
	InitTemp float64
	// Cooling is the per-step temperature multiplier (default 0.995).
	Cooling float64
}

// Name implements Tuner.
func (Annealing) Name() string { return "annealing" }

// Tune implements Tuner.
func (a Annealing) Tune(s Space, budget int, seed uint64) Result {
	if a.InitTemp <= 0 {
		a.InitTemp = 0.3
	}
	if a.Cooling <= 0 || a.Cooling >= 1 {
		a.Cooling = 0.995
	}
	rng := tensor.NewRNG(seed)
	rec := newRecorder()
	dims := s.Dims()

	// Find a legal starting point.
	var cur []int
	var curCost float64
	for rec.spent() < budget {
		p := randomPoint(rng, dims)
		c, legal := rec.record(s, p)
		if legal {
			cur, curCost = p, c
			break
		}
	}
	if cur == nil {
		return rec.res
	}
	temp := a.InitTemp * curCost
	for rec.spent() < budget {
		// Neighbor: move one dimension by ±1 (wrapping).
		n := append([]int(nil), cur...)
		d := rng.Intn(len(dims))
		if rng.Intn(2) == 0 {
			n[d] = (n[d] + 1) % dims[d]
		} else {
			n[d] = (n[d] - 1 + dims[d]) % dims[d]
		}
		c, legal := rec.record(s, n)
		if legal && (c < curCost || rng.Float64() < math.Exp((curCost-c)/math.Max(temp, 1e-12))) {
			cur, curCost = n, c
		}
		temp *= a.Cooling
	}
	return rec.res
}
