package runtime

import (
	"fmt"
	"time"

	"repro/internal/autotune"
	"repro/internal/metrics"
	"repro/internal/quant"
)

// This file connects a compiled Plan to the online bandit in
// internal/autotune, closing the tuning loop end to end:
//
//   compile ── seeds op.Impl from the persistent store (seedFromStore)
//   serve   ── StartTuner routes a bounded exploration fraction of real
//              executions through alternate implementations and promotes
//              sustained winners from live metrics latency series
//   stop    ── promoted winners are written back to the store and saved,
//              so the next compile (this process or a restarted one)
//              plans the measured winner on its first request
//
// Routing is lock-free on the serving path: Plan.live is an atomic pointer
// resolved once per Executor.Run, and each tuned step costs one atomic
// counter increment (LayerTuner.Choose). Only implementations Compile
// evaluated as candidates — and proven bit-compatible by the conformance
// harness — are ever explored; Compile keeps only the selected one's
// structure, so StartTuner builds the others once, at attach time.

// TunerConfig configures Plan.StartTuner.
type TunerConfig struct {
	// Policy is the bandit policy (zero value = autotune.DefaultPolicy).
	Policy autotune.Policy
	// Interval is the polling period for the background goroutine. Zero
	// disables background polling; the caller then drives PlanTuner.Poll
	// itself (tests do this for determinism).
	Interval time.Duration
	// Store receives promoted winners on Stop (and is typically also the
	// store the plan was compiled with, so seeding and write-back share
	// state). Nil with a StorePath set means a fresh store is created.
	Store *autotune.Store
	// StorePath, when non-empty, is where Stop persists the store
	// (atomic rename, merging with concurrent writers).
	StorePath string
}

// liveTuner is the routing state installed on Plan.live while tuning is
// active. perStep/arms are indexed by plan step: nil entries are untuned
// steps (generic ops, single-candidate operators).
type liveTuner struct {
	tuner   *autotune.Bandit
	perStep []*autotune.LayerTuner
	arms    [][]Impl
}

// metricsArmReader adapts the metrics recorder's per-kernel layer series to
// the bandit's ArmReader. A sample counts items, not runs (an Executor.Run
// of m items records one execution of m items), so the bandit compares
// arms per item: an arm explored on a 4-item run does not look 4× slower
// than one explored on a 1-item run. It re-resolves the process recorder
// on every Sample, so metrics Enable/Disable swaps mid-tuning degrade to
// "no new samples this poll" (the bandit's delta logic tolerates series
// resets) instead of pinning a dead recorder.
type metricsArmReader struct {
	// kernels maps "layer|arm" to the kernel tag that arm's executions are
	// recorded under in the layer's series.
	kernels map[string]metrics.Kernel
}

func (r *metricsArmReader) Sample(layer, arm string) autotune.ArmSample {
	rec := metrics.Get()
	if rec == nil {
		return autotune.ArmSample{}
	}
	kernel, ok := r.kernels[layer+"|"+arm]
	if !ok {
		return autotune.ArmSample{}
	}
	items, sum := rec.Layer(layer).KernelSample(kernel)
	return autotune.ArmSample{Count: items, SumNs: sum}
}

// PlanTuner is a running online-tuning session on one plan. Stop it before
// discarding the plan; after Stop the plan keeps serving the promoted
// configuration (routing frozen, exploration off).
type PlanTuner struct {
	plan  *Plan
	cfg   TunerConfig
	tuner *autotune.Bandit
	stop  chan struct{}
	done  chan struct{}
}

// StartTuner begins online autotuning on the plan: every tunable operator
// (conv/dense with at least two evaluated candidates) gets its other arms
// built and becomes a bandit layer whose incumbent is the planned
// implementation. Call it before the plan serves. Returns an error if the
// plan was compiled with a forced implementation (there is nothing to
// tune — and a forced plan promises its forced kernels) or if a tuning
// session is already active on this plan.
func (p *Plan) StartTuner(cfg TunerConfig) (*PlanTuner, error) {
	if p.Opts.Force != ImplAuto {
		return nil, fmt.Errorf("runtime: cannot tune a plan forced to %s", p.Opts.Force)
	}
	if p.live.Load() != nil {
		return nil, fmt.Errorf("runtime: plan already has an active tuner")
	}
	if cfg.Store == nil {
		cfg.Store = autotune.NewStore()
	}

	reader := &metricsArmReader{kernels: make(map[string]metrics.Kernel)}
	var (
		decls   []autotune.TunedLayer
		stepIdx []int // plan step index of each declared layer
		armSets [][]Impl
	)
	for i := range p.Ops {
		op := &p.Ops[i]
		impls := op.tunableArms()
		if len(impls) < 2 || op.shapeKey == "" {
			continue
		}
		if err := op.buildArms(impls, p.Opts); err != nil {
			return nil, fmt.Errorf("runtime: building tuner arms for %s: %w", op.Node, err)
		}
		name := p.MetricsPrefix + op.Node.Name
		names := make([]string, len(impls))
		initial := -1
		for j, im := range impls {
			if im == op.Impl {
				initial = j
			}
			names[j] = im.String()
			reader.kernels[name+"|"+names[j]] = stepKernelFor(op.Node.Kind, im)
		}
		if initial < 0 {
			continue // planned impl not among the candidates (cannot happen for Compile-built plans)
		}
		decls = append(decls, autotune.TunedLayer{
			Name: name, Shape: op.shapeKey, Arms: names, Initial: initial,
		})
		stepIdx = append(stepIdx, i)
		armSets = append(armSets, impls)
	}

	tuner, err := autotune.NewBandit(cfg.Policy, reader, decls)
	if err != nil {
		return nil, err
	}
	lt := &liveTuner{
		tuner:   tuner,
		perStep: make([]*autotune.LayerTuner, len(p.Ops)),
		arms:    make([][]Impl, len(p.Ops)),
	}
	// NewBandit keeps >=2-arm layers in declaration order, and every decl
	// has >=2 arms, so tuner.Layers() aligns 1:1 with decls.
	for j, l := range tuner.Layers() {
		lt.perStep[stepIdx[j]] = l
		lt.arms[stepIdx[j]] = armSets[j]
	}
	p.live.Store(lt)

	pt := &PlanTuner{plan: p, cfg: cfg, tuner: tuner}
	pt.publish()
	if cfg.Interval > 0 {
		pt.stop = make(chan struct{})
		pt.done = make(chan struct{})
		go pt.loop()
	}
	return pt, nil
}

// buildArms builds the arms Compile dropped or only ranked, through the
// same per-implementation builder and with the node's own weights, so
// routed executions are bit-identical to a plan forced to the arm. The
// structures are written before StartTuner publishes Plan.live, whose
// atomic store orders them before any routed read. A built arm is
// lowered like a selected one; an IPE arm is interned and released with it
// by ReleasePool.
func (op *CompiledOp) buildArms(arms []Impl, opts Options) error {
	q := quant.Quantize(op.Node.Param("weight"), opts.Bits, opts.Scheme)
	for _, im := range arms {
		if op.built(im) {
			continue
		}
		if _, _, err := op.build(im, q, opts, false); err != nil {
			return err
		}
		op.lower(im, opts.DictStore)
	}
	return nil
}

// loop is the background polling goroutine.
func (pt *PlanTuner) loop() {
	defer close(pt.done)
	tick := time.NewTicker(pt.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			pt.Poll()
		case <-pt.stop:
			return
		}
	}
}

// Poll runs one bandit poll over every tuned layer — reading the latest
// per-implementation latency series and applying the promotion rule — and
// publishes the session's state to the metrics recorder. It returns the
// number of layers that promoted a new serving implementation. Tests and
// callers with Interval == 0 drive this directly.
func (pt *PlanTuner) Poll() int {
	promoted := pt.tuner.Poll()
	pt.publish()
	return promoted
}

// publish pushes per-layer tuning gauges into the metrics recorder so
// inspire-stats can show what the tuner is doing.
func (pt *PlanTuner) publish() {
	rec := metrics.Get()
	if rec == nil {
		return
	}
	for _, l := range pt.tuner.Layers() {
		c, e, p := l.Counts()
		rec.Autotune(l.Name()).Publish(l.CurrentArm(), c, e, p)
	}
}

// State snapshots every tuned layer's bandit.
func (pt *PlanTuner) State() []autotune.LayerTunerState { return pt.tuner.State() }

// Stop ends the tuning session: it halts background polling, freezes
// routing at the promoted configuration (in-flight and future runs serve
// the winners; exploration stops), writes the winners into the configured
// store, and — when StorePath is set — persists the store to disk. The
// returned error is the save error, if any; winners are in cfg.Store
// regardless.
func (pt *PlanTuner) Stop() error {
	if pt.stop != nil {
		close(pt.stop)
		<-pt.done
		pt.stop = nil
	}
	pt.tuner.Freeze()
	pt.tuner.WinnersTo(pt.cfg.Store, time.Now().UnixNano())
	pt.publish()
	if pt.cfg.StorePath == "" {
		return nil
	}
	return pt.cfg.Store.Save(pt.cfg.StorePath)
}
