package autotune

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// This file is the online half of the package: an epsilon-greedy bandit
// that tunes each layer's kernel implementation from live latency series.
// The offline tuners above search a simulator; the bandit closes the loop
// against reality — it routes a small, exactly-bounded fraction of real
// executions through alternate (conformance-proven bit-compatible)
// implementations, reads the resulting per-implementation latency series
// back from the metrics recorder, and promotes a new serving choice only on
// a sustained, statistically meaningful improvement.
//
// The design splits cleanly into a hot path and a cold path:
//
//   - Choose is the hot path, called once per tuned layer per inference.
//     It is allocation-free and uses a single atomic counter: every
//     ExplorePeriod-th call explores, cycling round-robin through the
//     alternate arms. Exploration overhead is therefore exactly
//     floor(n/ExplorePeriod) of n executions — a hard bound, not an
//     expectation — and the whole schedule is deterministic, which the
//     simulation harness (sim.go) exploits to make convergence assertable.
//
//   - Poll is the cold path, run by one goroutine on a timer. It reads each
//     arm's cumulative (count, sum-of-ns) series through an ArmReader,
//     forms the delta since the previous poll, folds the delta's mean into
//     a per-arm EWMA, and applies the promotion rule: a candidate must beat
//     the incumbent's EWMA by PromoteMargin on Hysteresis consecutive polls
//     before it becomes the serving choice. The margin suppresses flapping
//     on near-ties; the EWMA forgets old regimes so the bandit re-converges
//     after a latency shift; the hysteresis makes a single lucky poll
//     insufficient.

// Policy configures the online bandit. The zero value means defaults.
type Policy struct {
	// ExplorePeriod routes every N-th execution of a tuned layer through an
	// alternate implementation (default 16, i.e. 1/16 exploration).
	ExplorePeriod int
	// MinSamples is the cumulative per-arm sample count required before an
	// arm may win or lose a promotion decision (default 30).
	MinSamples int64
	// PromoteMargin is the fractional EWMA-latency improvement a candidate
	// must show over the incumbent (default 0.10 = 10% faster).
	PromoteMargin float64
	// Hysteresis is the number of consecutive polls the same candidate must
	// win by the margin before it is promoted (default 3).
	Hysteresis int
	// EWMAAlpha weights the newest poll delta in the per-arm latency EWMA
	// (default 0.4; higher adapts faster, lower smooths more).
	EWMAAlpha float64
}

// DefaultPolicy returns the documented defaults.
func DefaultPolicy() Policy {
	return Policy{ExplorePeriod: 16, MinSamples: 30, PromoteMargin: 0.10, Hysteresis: 3, EWMAAlpha: 0.4}
}

func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.ExplorePeriod <= 0 {
		p.ExplorePeriod = d.ExplorePeriod
	}
	if p.MinSamples <= 0 {
		p.MinSamples = d.MinSamples
	}
	if p.PromoteMargin <= 0 {
		p.PromoteMargin = d.PromoteMargin
	}
	if p.Hysteresis <= 0 {
		p.Hysteresis = d.Hysteresis
	}
	if p.EWMAAlpha <= 0 || p.EWMAAlpha > 1 {
		p.EWMAAlpha = d.EWMAAlpha
	}
	return p
}

// ArmSample is one arm's cumulative latency series: how many units of work
// have been recorded for it and their total nanoseconds. The bandit ranks
// arms by SumNs/Count, so a reader whose executions vary in size counts
// items, not executions (the runtime's reader does).
type ArmSample struct {
	Count int64
	SumNs int64
}

// ArmReader supplies the bandit's reward signal: the cumulative latency
// series of one (layer, arm) pair. The production implementation reads the
// metrics recorder's per-kernel layer series; the simulation harness
// substitutes scripted distributions.
type ArmReader interface {
	Sample(layer, arm string) ArmSample
}

// TunedLayer declares one layer for the tuner: its metrics series name, its
// persistent-cache shape key, the candidate implementations (arm 0 first is
// not required — Initial picks the incumbent), and the incumbent index.
type TunedLayer struct {
	Name    string
	Shape   string
	Arms    []string
	Initial int
}

// LayerTuner is the per-layer bandit state. Choose is safe for concurrent
// use from many executors; the poll-side fields are owned by the Bandit's
// single polling goroutine.
type LayerTuner struct {
	name  string
	shape string
	arms  []string
	pol   Policy

	cur      atomic.Int32 // serving arm index
	frozen   atomic.Bool  // Stop() freezes routing at the promoted choice
	chooses  atomic.Int64
	explores atomic.Int64
	promos   atomic.Int64

	// Poll-side state (guarded by the owning Bandit's mutex).
	prev   []ArmSample
	ewma   []float64
	seen   []bool
	cand   int
	streak int
}

// Name returns the layer's metrics series name.
func (lt *LayerTuner) Name() string { return lt.name }

// Shape returns the layer's persistent-cache shape key.
func (lt *LayerTuner) Shape() string { return lt.shape }

// Arms returns the arm names (do not mutate).
func (lt *LayerTuner) Arms() []string { return lt.arms }

// Current returns the serving arm index.
func (lt *LayerTuner) Current() int { return int(lt.cur.Load()) }

// CurrentArm returns the serving arm name.
func (lt *LayerTuner) CurrentArm() string { return lt.arms[lt.cur.Load()] }

// Counts returns the routing counters: total Choose calls, how many of them
// explored an alternate arm, and how many promotions have happened.
func (lt *LayerTuner) Counts() (chooses, explores, promotions int64) {
	return lt.chooses.Load(), lt.explores.Load(), lt.promos.Load()
}

// Choose returns the arm index the next execution should run. Every
// ExplorePeriod-th call explores, cycling round-robin over the non-serving
// arms; all other calls return the serving arm. The schedule is driven by
// one atomic counter, so the exploration fraction is exactly bounded and
// deterministic, and the call is allocation-free.
func (lt *LayerTuner) Choose() int {
	cur := int(lt.cur.Load())
	if len(lt.arms) < 2 || lt.frozen.Load() {
		return cur
	}
	n := lt.chooses.Add(1)
	if n%int64(lt.pol.ExplorePeriod) != 0 {
		return cur
	}
	k := lt.explores.Add(1)
	idx := int((k - 1) % int64(len(lt.arms)-1))
	if idx >= cur {
		idx++ // skip the serving arm: exploration always probes an alternate
	}
	return idx
}

// poll ingests one round of series deltas and applies the promotion rule.
// It returns the promoted arm index, or -1. Caller holds the Bandit mutex.
func (lt *LayerTuner) poll(r ArmReader) int {
	for i, arm := range lt.arms {
		s := r.Sample(lt.name, arm)
		dc, ds := s.Count-lt.prev[i].Count, s.SumNs-lt.prev[i].SumNs
		lt.prev[i] = s
		if dc <= 0 || ds < 0 {
			continue // no new samples this poll (or a recorder swap reset the series)
		}
		m := float64(ds) / float64(dc)
		if !lt.seen[i] {
			lt.ewma[i], lt.seen[i] = m, true
		} else {
			lt.ewma[i] = lt.pol.EWMAAlpha*m + (1-lt.pol.EWMAAlpha)*lt.ewma[i]
		}
	}
	cur := int(lt.cur.Load())
	if !lt.seen[cur] {
		lt.reset()
		return -1 // cannot judge against an unmeasured incumbent
	}
	best, bestV := -1, math.Inf(1)
	for i := range lt.arms {
		if i == cur || !lt.seen[i] || lt.prev[i].Count < lt.pol.MinSamples {
			continue
		}
		if lt.ewma[i] < bestV {
			best, bestV = i, lt.ewma[i]
		}
	}
	if best < 0 || bestV >= lt.ewma[cur]*(1-lt.pol.PromoteMargin) {
		lt.reset() // nobody clears the bar this poll: any pending streak dies
		return -1
	}
	if lt.cand != best {
		lt.cand, lt.streak = best, 0 // a different candidate restarts the count
	}
	lt.streak++
	if lt.streak < lt.pol.Hysteresis {
		return -1
	}
	lt.cur.Store(int32(best))
	lt.promos.Add(1)
	lt.reset()
	return best
}

func (lt *LayerTuner) reset() { lt.cand, lt.streak = -1, 0 }

// LayerTunerState is a point-in-time view of one layer's bandit, for
// reports and the metrics snapshot.
type LayerTunerState struct {
	Layer      string
	Shape      string
	Current    string
	Chooses    int64
	Explores   int64
	Promotions int64
	// ArmMeanNs holds the EWMA latency per arm name, for arms that have
	// been observed at least once.
	ArmMeanNs map[string]float64
}

// Bandit drives the per-layer bandits of one plan: Poll ingests the latest
// series for every layer, and the write-back methods persist winners.
type Bandit struct {
	mu     sync.Mutex
	pol    Policy
	reader ArmReader
	layers []*LayerTuner
}

// NewBandit builds a tuner over the given layers, reading reward series from
// r. Layers with fewer than two arms are dropped (nothing to tune); an
// out-of-range Initial index is an error, so misconfigured callers fail
// loudly instead of silently serving arm 0.
func NewBandit(pol Policy, r ArmReader, layers []TunedLayer) (*Bandit, error) {
	pol = pol.withDefaults()
	t := &Bandit{pol: pol, reader: r}
	for _, l := range layers {
		if len(l.Arms) < 2 {
			continue
		}
		if l.Initial < 0 || l.Initial >= len(l.Arms) {
			return nil, fmt.Errorf("autotune: layer %s: initial arm %d out of range [0,%d)", l.Name, l.Initial, len(l.Arms))
		}
		lt := &LayerTuner{
			name: l.Name, shape: l.Shape,
			arms: append([]string(nil), l.Arms...),
			pol:  pol,
			prev: make([]ArmSample, len(l.Arms)),
			ewma: make([]float64, len(l.Arms)),
			seen: make([]bool, len(l.Arms)),
			cand: -1,
		}
		lt.cur.Store(int32(l.Initial))
		t.layers = append(t.layers, lt)
	}
	return t, nil
}

// Layers returns the per-layer bandits (do not mutate).
func (t *Bandit) Layers() []*LayerTuner { return t.layers }

// Poll reads every layer's latest series and applies the promotion rule,
// returning how many layers promoted a new serving arm this pass. Safe for
// concurrent use, but intended for a single periodic caller.
func (t *Bandit) Poll() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	promoted := 0
	for _, lt := range t.layers {
		if lt.poll(t.reader) >= 0 {
			promoted++
		}
	}
	return promoted
}

// Freeze stops exploration on every layer: Choose returns the serving arm
// unconditionally from now on. Used at shutdown so draining traffic runs
// entirely on the promoted configuration.
func (t *Bandit) Freeze() {
	for _, lt := range t.layers {
		lt.frozen.Store(true)
	}
}

// State snapshots every layer's bandit.
func (t *Bandit) State() []LayerTunerState {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]LayerTunerState, 0, len(t.layers))
	for _, lt := range t.layers {
		c, e, p := lt.Counts()
		st := LayerTunerState{
			Layer: lt.name, Shape: lt.shape, Current: lt.CurrentArm(),
			Chooses: c, Explores: e, Promotions: p,
			ArmMeanNs: make(map[string]float64),
		}
		for i, arm := range lt.arms {
			if lt.seen[i] {
				st.ArmMeanNs[arm] = lt.ewma[i]
			}
		}
		out = append(out, st)
	}
	return out
}

// WinnersTo writes each layer's serving arm into the persistent store under
// (shape, arm, par 0), carrying the arm's cumulative sample count and EWMA
// latency. Layers whose serving arm has no observed samples are skipped —
// an unmeasured incumbent is a default, not a winner worth persisting.
func (t *Bandit) WinnersTo(store *Store, nowUnixNs int64) {
	if store == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, lt := range t.layers {
		cur := int(lt.cur.Load())
		if !lt.seen[cur] || lt.prev[cur].Count <= 0 {
			continue
		}
		store.Put(
			Key{Shape: lt.shape, Impl: lt.arms[cur]},
			Entry{MeanNs: lt.ewma[cur], Samples: lt.prev[cur].Count, UpdatedUnixNs: nowUnixNs},
		)
	}
}
