package runtime

import (
	"fmt"
	goruntime "runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/ipe"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Executor is a reusable execution context for one Plan: it owns the
// activation arena laid out by the memory planner, one prebuilt tensor view
// per planned buffer, a flat node-ID-indexed slot table, and the intra-op
// parallelism context with its per-shard kernel scratch arenas. Every
// kernel writes directly into its planned arena slot (destination passing),
// so after the first warm-up run an Executor at parallelism 1 performs zero
// heap allocations per inference.
//
// Run accepts any positive multiple m of the compiled batch and runs all
// m items through each operator in one call ("batch as columns"). The
// views are then bound at m× the planned offsets and sizes over an arena
// grown to m× the plan's: PlanMemory is first-fit over sizes that all
// scale with dimension 0 (Compile checks that every node keeps the input's
// batch), so the scaled layout is exactly the batch-m plan. The arena only
// grows, and views are rebound only when m changes, so runs at a repeated
// m stay allocation-free.
//
// An Executor is not safe for concurrent use; run one per goroutine
// (Plan.AcquireExecutor hands out pooled instances). The tensor returned by
// Run aliases the arena and is valid until the next Run on the same
// Executor.
type Executor struct {
	plan  *Plan
	arena []float32
	items int              // multiple of the compiled batch the views are bound for
	slots []*tensor.Tensor // node ID -> value (arena view, const, or input)
	steps []execStep
	par   *tensor.Par
	// rec is the metrics recorder resolved once at construction (nil when
	// metrics were disabled then). Per-step layer handles live on the
	// steps; rec gates the whole-run accounting.
	rec *metrics.Recorder
}

// execStep is one operator of the precompiled schedule: the compiled op,
// its prebuilt destination view into the arena, and the slot IDs of its
// inputs (resolved into ins each run — only the graph input changes between
// runs, but refreshing all of them is branch-free pointer writes).
type execStep struct {
	op     *CompiledOp
	insIDs []int
	ins    []*tensor.Tensor
	out    *tensor.Tensor
	// stats is the step's per-layer metrics series (nil when metrics were
	// disabled at executor construction); kernel is the dispatch tag
	// recorded with each timing sample. Executors of one plan share series
	// by layer name, so pooled executors aggregate into the same rows.
	stats  *metrics.LayerStats
	kernel metrics.Kernel
}

// NewExecutor builds an execution context for the plan: it allocates the
// arena, materializes one tensor view per planned activation buffer, and
// precompiles the topological schedule into a flat step list so Run touches
// no maps and allocates nothing. It panics if the plan lacks an allocation
// for an operator (impossible for plans built by Compile).
func (p *Plan) NewExecutor() *Executor {
	return p.newExecutor(metrics.Get())
}

// newExecutor is NewExecutor against a caller-captured recorder, so a
// pool-miss build inside acquireExecutor stays on the request's recorder.
func (p *Plan) newExecutor(rec *metrics.Recorder) *Executor {
	e := &Executor{
		plan: p,
		par:  tensor.NewPar(parallel.Shared(), 0), // default GOMAXPROCS shards
		rec:  rec,
	}
	if e.rec != nil {
		e.rec.Exec.Builds.Add(1)
	}
	maxID := 0
	order := p.Graph.Topo()
	for _, n := range order {
		if n.ID > maxID {
			maxID = n.ID
		}
	}
	e.slots = make([]*tensor.Tensor, maxID+1)
	for _, n := range order {
		if n.Kind == graph.OpConst {
			e.slots[n.ID] = n.Value
		}
	}
	e.steps = make([]execStep, len(p.Ops))
	for i := range p.Ops {
		op := &p.Ops[i]
		n := op.Node
		if _, ok := p.Alloc[n.ID]; !ok {
			panic(fmt.Sprintf("runtime: no allocation for %s", n))
		}
		st := execStep{
			op:     op,
			insIDs: make([]int, len(n.Inputs)),
			ins:    make([]*tensor.Tensor, len(n.Inputs)),
		}
		if e.rec != nil {
			st.stats = e.rec.Layer(p.MetricsPrefix + n.Name)
			st.kernel = stepKernel(op)
		}
		for j, in := range n.Inputs {
			st.insIDs[j] = in.ID
		}
		e.steps[i] = st
	}
	e.bind(1)
	return e
}

// bind lays the step views out for runs of m times the compiled batch:
// each buffer at m× its planned offset and size, shaped with dimension 0
// scaled by m. The arena grows to m× the plan's when it is smaller (never
// shrinks), and the resident/peak arena gauges follow what the executor
// actually holds. A no-op when the views are already bound for m.
func (e *Executor) bind(m int) {
	if m == e.items {
		return
	}
	p := e.plan
	if need := int64(m) * p.ArenaBytes / 4; int64(len(e.arena)) < need {
		if e.rec != nil {
			e.rec.Exec.ArenaBytesResident.Add(4 * (need - int64(len(e.arena))))
			e.rec.Exec.UpdateArenaPeak(4 * need)
		}
		e.arena = make([]float32, need)
	}
	mm := int64(m)
	for i := range e.steps {
		st := &e.steps[i]
		n := st.op.Node
		al := p.Alloc[n.ID]
		shape := n.OutShape.Clone()
		shape[0] *= m
		st.out = tensor.From(e.arena[mm*al.Offset/4:mm*al.End()/4], shape...)
		e.slots[n.ID] = st.out
	}
	e.items = m
}

// stepKernel maps a compiled operator to the kernel-family tag its
// dispatch in runStep will execute (the per-layer "kernel chosen" column).
func stepKernel(op *CompiledOp) metrics.Kernel {
	switch op.Node.Kind {
	case graph.OpConv:
		switch op.Impl {
		case ImplDense:
			return metrics.KernelDirect
		case ImplWinograd:
			return metrics.KernelWinograd
		case ImplCSR:
			return metrics.KernelCSR
		case ImplFactorized:
			return metrics.KernelFactorized
		case ImplIPE:
			// Plans lower every program at compile time, so the serving
			// path always runs the compiled form.
			return metrics.KernelIPECompiled
		}
	case graph.OpDense:
		switch op.Impl {
		case ImplDense:
			return metrics.KernelGEMM
		case ImplCSR:
			return metrics.KernelCSR
		case ImplFactorized:
			return metrics.KernelFactorized
		case ImplIPE:
			return metrics.KernelIPECompiled
		}
	default:
		return metrics.KernelGeneric
	}
	return metrics.KernelUnknown
}

// Plan returns the plan this executor runs.
func (e *Executor) Plan() *Plan { return e.plan }

// SetParallelism sets the number of intra-op shards the heavy kernels
// (conv, GEMM, IPE matrix execution) split their output across, drawing
// helpers from the process-wide bounded pool (so concurrent executors
// compose without oversubscription). n <= 0 means GOMAXPROCS (the default);
// 1 reproduces fully serial execution with its zero-allocation guarantee.
// Any setting yields bit-identical outputs: shards cover disjoint output
// regions and per-output accumulation order is unchanged.
func (e *Executor) SetParallelism(n int) { e.par.SetShards(n) }

// Run executes the plan on the CPU, writing every activation directly into
// its planned arena slot. The chosen implementation computes each
// conv/dense operator, so the numerical output reflects the selected
// (possibly quantized) kernels. The input's dimension 0 may be any positive
// multiple m of the compiled batch (every other dimension must match): all
// m items then run through each operator in one call, and the result holds
// item i's output at index i along dimension 0, bit-identical to running
// each item alone (every kernel computes an output column from its own
// input only). The returned tensor aliases the executor's arena: it is
// overwritten by the next Run, so callers that keep it must Clone it
// (Plan.Run does).
func (e *Executor) Run(input *tensor.Tensor) (*tensor.Tensor, error) {
	g := e.plan.Graph
	m, err := e.plan.itemsOf(input.Shape())
	if err != nil {
		return nil, err
	}
	var runStart time.Time
	if e.rec != nil {
		runStart = time.Now()
	}
	e.bind(m)
	batch := input.Dim(0)
	e.slots[g.In.ID] = input
	for i := range e.steps {
		st := &e.steps[i]
		for j, id := range st.insIDs {
			st.ins[j] = e.slots[id]
		}
		e.par.Reset()
		if st.stats != nil {
			t0 := time.Now()
			err = e.runStep(st)
			st.stats.Record(st.kernel, time.Since(t0).Nanoseconds(), batch)
		} else {
			err = e.runStep(st)
		}
		if err != nil {
			e.dropInputRefs()
			if e.rec != nil {
				e.rec.Exec.Runs.Add(1)
				e.rec.Exec.RunErrors.Add(1)
			}
			return nil, fmt.Errorf("runtime: executing %s: %w", st.op.Node, err)
		}
	}
	e.dropInputRefs()
	if e.rec != nil {
		e.rec.Exec.Runs.Add(1)
		e.rec.Exec.RunNs.Observe(time.Since(runStart).Nanoseconds())
		e.rec.Exec.UpdateScratchHighWater(e.par.HighWater())
	}
	return e.slots[g.Out.ID], nil
}

// dropInputRefs clears the input slot and every resolved step input so a
// released executor never pins the caller's input tensor in the pool (both
// the slot table and the per-step ins caches hold it after a run).
func (e *Executor) dropInputRefs() {
	e.slots[e.plan.Graph.In.ID] = nil
	for i := range e.steps {
		ins := e.steps[i].ins
		for j := range ins {
			ins[j] = nil
		}
	}
}

// runStep dispatches one operator to the destination-passing kernel of the
// structure Compile kept for it. A FusedReLU node gets its ReLU in the
// kernel's own epilogue on the IPE, factorized and CSR paths (the bias pass
// of a dense layer, the output scatter of a conv) and inside
// EvalNodeIntoPar on the generic path; only Winograd applies it as a second
// pass over the output.
func (e *Executor) runStep(st *execStep) error {
	op, dst := st.op, st.out
	n := op.Node
	relu := n.Attrs.FusedReLU
	switch {
	case op.streams != nil && n.Kind == graph.OpConv:
		tensor.ConvColumns(dst, st.ins[0], n.Attrs.Conv, op.bias, relu, e.par, (*ipe.Groups)(&op.streams))
	case op.streams != nil:
		op.streams[0].DenseIntoPar(dst, st.ins[0], op.bias, relu, e.par)
	case op.winConv != nil:
		op.winConv.ForwardIntoPar(dst, st.ins[0], e.par)
		if relu {
			tensor.ReLUInto(dst, dst)
		}
	default:
		// Dense convs and FC layers run the node's float weights through
		// the reference kernels; EvalNodeIntoPar already applies FusedReLU.
		return graph.EvalNodeIntoPar(dst, n, st.ins, e.par)
	}
	return nil
}

// AcquireExecutor checks an Executor out of the plan's pool, building a new
// one if the pool is empty. Return it with ReleaseExecutor when done. This
// is the serving-path API: compile once, pool executors, run many.
func (p *Plan) AcquireExecutor() *Executor {
	return p.acquireExecutor(metrics.Get())
}

// acquireExecutor is AcquireExecutor against a caller-captured recorder, so
// paths that check out and return an executor within one request (RunBatch,
// the serve batcher) keep both sides of the accounting on the same recorder
// even if the process-wide recorder is swapped mid-request.
func (p *Plan) acquireExecutor(rec *metrics.Recorder) *Executor {
	if rec != nil {
		rec.Exec.Acquires.Add(1)
	}
	p.poolMu.Lock()
	if n := len(p.poolFree); n > 0 {
		e := p.poolFree[n-1]
		p.poolFree[n-1] = nil
		p.poolFree = p.poolFree[:n-1]
		p.poolMu.Unlock()
		if rec != nil {
			rec.Exec.PoolReuses.Add(1)
		}
		return e
	}
	p.poolMu.Unlock()
	return p.newExecutor(rec)
}

// ReleaseExecutor returns an Executor to the plan's pool for reuse,
// restoring the default parallelism so the next acquirer starts from a
// known setting. The caller must not use the executor (or tensors returned
// by its Run) after release. Executors beyond the pool's capacity — or
// returned after ReleasePool — are discarded and their arena bytes
// subtracted from the resident gauge.
func (p *Plan) ReleaseExecutor(e *Executor) {
	p.releaseExecutor(e, metrics.Get())
}

// releaseExecutor is ReleaseExecutor against a caller-captured recorder
// (see acquireExecutor).
func (p *Plan) releaseExecutor(e *Executor, rec *metrics.Recorder) {
	if e == nil || e.plan != p {
		return
	}
	if rec != nil {
		rec.Exec.Releases.Add(1)
	}
	e.SetParallelism(0)
	p.poolMu.Lock()
	if !p.poolClosed && len(p.poolFree) < p.poolCapLocked() {
		p.poolFree = append(p.poolFree, e)
		p.poolMu.Unlock()
		return
	}
	p.poolMu.Unlock()
	e.discard()
}

// poolCapLocked returns the effective pool capacity; callers hold poolMu.
func (p *Plan) poolCapLocked() int {
	if p.poolCap > 0 {
		return p.poolCap
	}
	return 2 * goruntime.GOMAXPROCS(0)
}

// SetPoolCap bounds the number of warm executors the plan keeps between
// runs (0 restores the default, 2×GOMAXPROCS). The registry sizes pools by
// observed per-model traffic through this. Lowering the cap takes effect as
// executors are released; it does not discard already-pooled ones.
func (p *Plan) SetPoolCap(n int) {
	p.poolMu.Lock()
	if n < 0 {
		n = 0
	}
	p.poolCap = n
	p.poolMu.Unlock()
}

// PooledExecutors returns the number of warm executors currently parked in
// the plan's free-list.
func (p *Plan) PooledExecutors() int {
	p.poolMu.Lock()
	defer p.poolMu.Unlock()
	return len(p.poolFree)
}

// ReleasePool discards every pooled executor and closes the pool: executors
// still in flight are discarded as they are returned instead of re-pooled,
// so once the last request drains, none of the plan's warm arenas remain
// resident. This is the hot-swap teardown path — the registry calls it
// after the old version's batcher has drained. The first call also gives
// back every IPE program the plan acquired from its dictionary store, so a
// retired version stops pinning entries no live plan references; later
// calls release nothing more. Returns the number of executors discarded
// now. The plan itself stays runnable (AcquireExecutor builds fresh
// executors, and the plan still holds its programs), just no longer pooling.
func (p *Plan) ReleasePool() int {
	p.poolMu.Lock()
	dead := p.poolFree
	retiring := !p.poolClosed
	p.poolFree = nil
	p.poolClosed = true
	p.poolMu.Unlock()
	for _, e := range dead {
		e.discard()
	}
	if retiring {
		p.Opts.DictStore.Release(p.IPEPrograms()...)
	}
	return len(dead)
}

// discard retires an executor for good, subtracting the arena it holds
// (grown by multi-item runs) from the resident gauge on the recorder that
// counted it.
func (e *Executor) discard() {
	if e.rec != nil {
		e.rec.Exec.ArenaBytesResident.Add(-4 * int64(len(e.arena)))
	}
}
