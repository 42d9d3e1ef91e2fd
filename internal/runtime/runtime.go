package runtime

import (
	"fmt"
	goruntime "runtime"
	"sync"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/ipe"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/report"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

// Impl identifies an operator implementation strategy.
type Impl int

// Implementation strategies for conv/dense operators.
const (
	// ImplAuto lets the compiler pick the fastest candidate per operator
	// (system-level exploration).
	ImplAuto Impl = iota
	// ImplDense is the dense im2col/GEMM kernel over float weights.
	ImplDense
	// ImplCSR is compressed-sparse-row execution over quantized weights.
	ImplCSR
	// ImplFactorized is UCNN-style value-factorized execution.
	ImplFactorized
	// ImplIPE is index-pair encoded execution (the paper's contribution).
	ImplIPE
	// ImplWinograd is Winograd F(2x2,3x3) dense execution; only available
	// for dense 3x3 stride-1 convolutions, so forcing it falls back to
	// ImplDense elsewhere.
	ImplWinograd
)

var implNames = map[Impl]string{
	ImplAuto: "auto", ImplDense: "dense", ImplCSR: "csr",
	ImplFactorized: "factorized", ImplIPE: "ipe", ImplWinograd: "winograd",
}

// String returns the implementation's short name.
func (im Impl) String() string {
	if s, ok := implNames[im]; ok {
		return s
	}
	return fmt.Sprintf("Impl(%d)", int(im))
}

// ImplByName resolves an implementation's short name (the inverse of
// String; "auto" resolves to ImplAuto).
func ImplByName(name string) (Impl, bool) {
	for im, s := range implNames {
		if s == name {
			return im, true
		}
	}
	return ImplAuto, false
}

// Options configures compilation. The encoded implementations (CSR,
// factorized, IPE) quantize each operator's weights per output channel
// (quant.PerChannel); per-tensor codes are built outside the runtime with
// quant.Quantize.
type Options struct {
	// Bits is the weight quantization bit-width for the encoded
	// implementations (default 4).
	Bits int
	// IPE configures the index-pair encoder (default ipe.DefaultConfig).
	IPE ipe.Config
	// DictStore, when non-nil, interns every served IPE program into the
	// shared dictionary store: layers whose encodings coincide — across
	// this plan, across plans of other models, and across successive
	// versions of one model — share one canonical compiled form, shrinking
	// resident bytes per served model. Execution is bit-identical to an
	// unshared plan (the canonical streams are the lowering of what the
	// layer encoded; conformance's shared-dict variant enforces this). The
	// store is safe for concurrent use from parallel compiles.
	DictStore *ipe.DictStore
	// HW is the accelerator model (default accel.Default).
	HW accel.Config
	// Force pins every conv/dense operator to one implementation;
	// ImplAuto (zero value) selects per operator by simulated cycles.
	Force Impl
	// Workers bounds the compilation parallelism (per-operator encoding
	// and candidate simulation are independent). 0 means GOMAXPROCS.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Bits == 0 {
		o.Bits = 4
	}
	if o.IPE == (ipe.Config{}) {
		o.IPE = ipe.DefaultConfig()
	}
	if o.HW.PEs == 0 {
		o.HW = accel.Default()
	}
	return o
}

// CompiledOp is one operator of an execution plan.
type CompiledOp struct {
	Node *graph.Node
	// Impl is the chosen implementation (ImplDense for non-conv/dense
	// operators is meaningless; they report ImplDense for uniformity).
	Impl Impl
	// Sim is the modeled execution of the chosen implementation.
	Sim accel.Result
	// Candidates maps every evaluated implementation to its modeled
	// execution, for the per-layer reports. It outlives the candidates'
	// structures: only Impl's is kept once selection is done.
	Candidates map[Impl]accel.Result

	// structure is Impl's serving structure, the only one Compile keeps.
	structure
	// bias is the node's bias (nil if it has none), which the compiled
	// streams' drivers add.
	bias *tensor.Tensor
}

// structure is one implementation's serving state on an operator: the
// compiled streams of CSR (one term per nonzero), factorized (one term per
// distinct code) or IPE (pair-merged terms), one per conv group and one for
// a dense layer, which run on the IPE executors; Winograd's transformed
// weights; or the node's float weight, which marks the dense kernel as
// built (EvalNodeIntoPar reads it through the node). At most one field is
// set. The spec and bias come from the node.
type structure struct {
	streams     []*ipe.Compiled
	winConv     *baseline.ConvWinograd
	denseWeight *tensor.Tensor
}

// built is what build returns for one implementation: Winograd's or dense's
// serving structure, or the encoded programs of CSR, factorized or IPE,
// which lower turns into streams. The zero value means the implementation
// was ranked without being built.
type built struct {
	structure
	programs []*ipe.Program
}

// Plan is a compiled, memory-planned, implementation-selected graph.
type Plan struct {
	Graph *graph.Graph
	// Ops is the execution schedule: one step per operator, in topological
	// order.
	Ops []CompiledOp
	// Alloc maps node IDs to arena placements; ArenaBytes is the arena
	// size.
	Alloc      map[int]Allocation
	ArenaBytes int64
	// Total is the modeled whole-network execution.
	Total accel.Result
	Opts  Options

	// MetricsPrefix is prepended to layer names when executors register
	// their metrics series (e.g. "lenet5/" so two plans in one process
	// don't merge same-named layers). Set it before the first
	// NewExecutor/AcquireExecutor call; empty is fine for a single plan.
	MetricsPrefix string

	// Executor recycling: an explicit bounded free-list instead of a
	// sync.Pool, so releases are deterministic — ReleasePool can prove the
	// warm arenas of a hot-swapped-out plan are gone, and the resident-byte
	// accounting balances exactly even under the race detector (which makes
	// sync.Pool drop Puts at random). Guarded by poolMu; poolClosed marks a
	// plan whose pool was released, after which returned executors are
	// discarded rather than re-pooled.
	poolMu     sync.Mutex
	poolFree   []*Executor
	poolCap    int // 0 = default (2×GOMAXPROCS)
	poolClosed bool
}

// Compile optimizes g in place, ranks every candidate implementation of
// each conv/dense operator on the accelerator model, selects per-operator
// winners, builds only the winners' structures (compileOp), and plans
// memory (PlanMemory's whole-tensor interval allocation). Operators are
// compiled on Workers goroutines in topological order; each result lands
// at its topological index, so the plan does not depend on the worker
// count.
func Compile(g *graph.Graph, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	if err := graph.Optimize(g); err != nil {
		return nil, err
	}
	if err := checkBatchDim(g); err != nil {
		return nil, err
	}
	p := &Plan{Graph: g, Opts: opts}
	var nodes []*graph.Node
	for _, n := range g.Topo() {
		if n.Kind != graph.OpInput && n.Kind != graph.OpConst {
			nodes = append(nodes, n)
		}
	}
	// Per-operator compilation (encoding, candidate simulation) is
	// independent across nodes; fan it out over a bounded worker pool and
	// keep the result order deterministic.
	workers := opts.Workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	if workers > len(nodes) {
		workers = len(nodes)
	}
	if workers < 1 {
		workers = 1
	}
	defer ipe.HoldEncoders()()
	ops := make([]CompiledOp, len(nodes))
	errs := make([]error, len(nodes))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ops[i], errs[i] = compileNode(nodes[i], opts)
			}
		}()
	}
	for i := range nodes {
		next <- i
	}
	close(next)
	wg.Wait()
	p.Ops = ops
	for i, err := range errs {
		if err != nil {
			// Give back what the operators that did compile interned.
			opts.DictStore.Release(p.IPEPrograms()...)
			return nil, fmt.Errorf("runtime: compiling %s: %w", nodes[i], err)
		}
	}
	alloc, arenaBytes, err := PlanMemory(g)
	if err != nil {
		return nil, err
	}
	p.Alloc, p.ArenaBytes = alloc, arenaBytes
	for i := range p.Ops {
		p.Total.Accumulate(p.Ops[i].Sim)
	}
	return p, nil
}

// checkBatchDim rejects a graph in which some operator's output does not
// keep the input's batch as dimension 0, or whose output is a constant.
// Executors run multi-item inputs by scaling the planned arena layout by
// the item count, which is the batch-m layout only when every planned size
// scales with dimension 0, and a constant output could not follow the
// input's item count at all.
func checkBatchDim(g *graph.Graph) error {
	batch := g.In.OutShape[0]
	for _, n := range g.Topo() {
		switch {
		case n == g.Out && n.Kind == graph.OpConst:
			return fmt.Errorf("runtime: graph output %s is a constant, not computed from the input", n)
		case n.Kind == graph.OpInput || n.Kind == graph.OpConst:
		case n.OutShape.Rank() == 0 || n.OutShape[0] != batch:
			return fmt.Errorf("runtime: %s output %v does not keep the input batch %d as dimension 0", n, n.OutShape, batch)
		}
	}
	return nil
}

func compileNode(n *graph.Node, opts Options) (CompiledOp, error) {
	if n.Kind == graph.OpConv || n.Kind == graph.OpDense {
		return compileOp(n, opts)
	}
	return compileGeneric(n, opts), nil
}

// implOrder is the order candidate implementations are ranked in (a cycle
// tie goes to the earlier one).
var implOrder = []Impl{ImplDense, ImplWinograd, ImplCSR, ImplFactorized, ImplIPE}

// denseSims memoises denseConvSim per (workload, accelerator): the result
// depends on nothing else, so a hot swap to new weights of a served
// architecture finds every dense candidate already simulated. The keys are
// the conv shapes of the architectures compiled in this process.
var denseSims sync.Map // denseSimKey -> accel.Result

// ForgetDenseSims empties the dense-simulation memo, so the next compile
// of each architecture simulates its dense candidates again, as the first
// compile in a fresh process does. Allocation tests call it to measure a
// cold compile whatever compiled before them in the process.
func ForgetDenseSims() {
	denseSims.Range(func(k, _ any) bool {
		denseSims.Delete(k)
		return true
	})
}

type denseSimKey struct {
	w  schedule.Workload
	hw accel.Config
}

// denseConvSim simulates the dense conv on schedule.HeuristicDense. The
// first call per workload and accelerator simulates; later calls return the
// memoised result.
func denseConvSim(w schedule.Workload, opts Options) accel.Result {
	key := denseSimKey{w, opts.HW}
	if r, ok := denseSims.Load(key); ok {
		return r.(accel.Result)
	}
	r := schedule.HeuristicDense(w, opts.HW)
	denseSims.Store(key, r)
	return r
}

// codes is an operator's quantized weights, which its CSR, factorized and
// IPE candidates all run on, with the counts CSR and factorized are ranked
// by.
type codes struct {
	q      *quant.Quantized
	counts ipe.Counts
}

// quantizeOnce quantizes an operator's weights once for all its encoded
// candidates; q is nil when the plan is forced to an implementation that
// builds none of them. The codes are counted only under auto, which ranks
// CSR and factorized without building them; a forced plan models the one
// implementation it builds from what it built.
func quantizeOnce(w *tensor.Tensor, opts Options) codes {
	var c codes
	if opts.Force != ImplDense && opts.Force != ImplWinograd {
		c.q = quant.Quantize(w, opts.Bits, quant.PerChannel)
	}
	if opts.Force == ImplAuto {
		c.counts = ipe.CountCodes(c.q)
	}
	return c
}

// compileOp selects and builds the implementation of a conv/dense operator.
// A forced plan builds the forced implementation once (dense when it does
// not apply) and models it from what it built. Under auto every candidate
// is ranked on the accelerator model and only the winner's structure is
// built, or kept: dense, CSR, factorized and Winograd are ranked from the
// spec and the code counts alone and built only if they win; IPE is built
// to be ranked (its cost is the encoder's output) and dropped with the
// ranking if it loses. Only the winner's programs are lowered (and, for
// IPE, interned), so losing programs are never pinned by the dictionary
// store.
func compileOp(n *graph.Node, opts Options) (CompiledOp, error) {
	op := CompiledOp{Node: n, Candidates: make(map[Impl]accel.Result), bias: n.Param("bias")}
	q := quantizeOnce(n.Param("weight"), opts)
	if im := opts.Force; im != ImplAuto {
		sim, b, ok, err := build(n, im, q, opts, false)
		if err == nil && !ok {
			// The forced implementation does not apply (Winograd off a 3x3
			// stride-1 conv, or on a dense layer): fall back to dense so a
			// forced plan stays runnable.
			im = ImplDense
			sim, b, _, err = build(n, im, q, opts, false)
		}
		if err != nil {
			return op, err
		}
		op.Impl, op.Sim, op.Candidates[im] = im, sim, sim
		op.structure = b.lower(im, opts.DictStore)
		return op, nil
	}
	var ranked [ImplWinograd + 1]built // indexed by Impl
	for _, im := range implOrder {
		sim, s, ok, err := build(n, im, q, opts, true)
		if err != nil {
			return op, err
		}
		if ok {
			op.Candidates[im], ranked[im] = sim, s
		}
	}
	op.Impl = chooseImpl(op.Candidates)
	op.Sim = op.Candidates[op.Impl]
	b := ranked[op.Impl]
	if b.programs == nil && b.winConv == nil && b.denseWeight == nil {
		var err error
		if _, b, _, err = build(n, op.Impl, q, opts, false); err != nil {
			return op, err
		}
	}
	op.structure = b.lower(op.Impl, opts.DictStore)
	return op, nil
}

func convWorkload(n *graph.Node) schedule.Workload {
	in := n.Inputs[0].OutShape
	return schedule.Workload{Spec: n.Attrs.Conv, N: in[0], H: in[2], W: in[3]}
}

// build returns implementation im's modeled execution on node n and, unless
// rankOnly is set, its serving structure; ok is false when im does not
// apply to the operator (Winograd off 3x3 stride-1 convs and on dense
// layers). q holds the operator's quantized weights, shared by the CSR,
// factorized and IPE programs, and, under auto, their counts. A built CSR
// or factorized program is modeled from its own cost, and a rank-only one
// from the counts, which equal it (accel.TestCountsMatchBuiltPrograms), so
// rankOnly skips their structure; Winograd is modeled from the spec. IPE
// is modeled from its program, which is built either way, as is dense,
// whose structure is the node's own weight. Programs come out raw; lower
// turns the kept ones into streams.
func build(n *graph.Node, im Impl, q codes, opts Options, rankOnly bool) (accel.Result, built, bool, error) {
	if n.Kind == graph.OpConv {
		return buildConv(n, im, q, opts, rankOnly)
	}
	return buildDense(n, im, q, opts, rankOnly)
}

func buildConv(n *graph.Node, im Impl, q codes, opts Options, rankOnly bool) (accel.Result, built, bool, error) {
	spec, wl := n.Attrs.Conv, convWorkload(n)
	weight, bias := n.Param("weight"), n.Param("bias")
	var s built
	switch im {
	case ImplDense:
		// Float weights, scheduled.
		s.denseWeight = weight
		return denseConvSim(wl, opts), s, true, nil
	case ImplCSR:
		nnz := q.counts.CSR
		if !rankOnly {
			l, err := ipe.SparseConv(q.q, bias, spec)
			if err != nil {
				return accel.Result{}, s, false, err
			}
			s.programs = l.Programs
			nnz = l.PixelCost().Muls // one term per nonzero
		}
		return opts.HW.Simulate(accel.SparseConvProfile(spec, wl.N, wl.H, wl.W, nnz)), s, true, nil
	case ImplFactorized:
		perPixel := q.counts.Factorized()
		if !rankOnly {
			l, err := ipe.FactorizeConv(q.q, bias, spec)
			if err != nil {
				return accel.Result{}, s, false, err
			}
			s.programs = l.Programs
			perPixel = l.PixelCost()
		}
		return opts.HW.Simulate(accel.FactorizedConvProfile(spec, wl.N, wl.H, wl.W, perPixel)), s, true, nil
	case ImplIPE:
		l, _, err := ipe.EncodeConvQuantized(q.q, bias, spec, opts.IPE)
		if err != nil {
			return accel.Result{}, s, false, err
		}
		s.programs = l.Programs
		return opts.HW.Simulate(accel.IPEConvProfile(l, wl.N, wl.H, wl.W)), s, true, nil
	case ImplWinograd:
		if baseline.SupportsWinograd(spec) != nil {
			return accel.Result{}, s, false, nil // kernel/stride/groups rule Winograd out
		}
		if !rankOnly {
			win, err := baseline.NewConvWinograd(weight, bias, spec)
			if err != nil {
				return accel.Result{}, s, false, err
			}
			s.winConv = win
		}
		return opts.HW.Simulate(accel.WinogradConvProfile(spec, wl.N, wl.H, wl.W, baseline.WinogradCost(spec, wl.N, wl.H, wl.W))), s, true, nil
	}
	return accel.Result{}, s, false, nil
}

func buildDense(n *graph.Node, im Impl, q codes, opts Options, rankOnly bool) (accel.Result, built, bool, error) {
	weight := n.Param("weight")
	m, k := weight.Dim(0), weight.Dim(1)
	batch := int64(n.Inputs[0].OutShape[0])
	simulate := func(name string, c ipe.Cost, weightBytes int64) accel.Result {
		c.Adds *= batch
		c.Muls *= batch
		actBytes := batch * int64(m+k) * 4
		return opts.HW.Simulate(accel.KernelProfile{
			Name: name, Adds: c.Adds, Muls: c.Muls,
			SRAMAccesses:    2 * (c.Adds + c.Muls),
			DRAMBytes:       weightBytes + actBytes,
			WorkingSetBytes: weightBytes,
		})
	}
	var s built
	switch im {
	case ImplDense:
		s.denseWeight = weight
		return simulate("dense", ipe.DenseCost(m, k), int64(m*k)*4), s, true, nil
	case ImplCSR:
		nnz := q.counts.CSR
		if !rankOnly {
			prog := ipe.Sparse(q.q)
			s.programs = []*ipe.Program{prog}
			nnz = prog.Cost().Muls // one term per nonzero
		}
		return simulate("csr", ipe.SparseCost(nnz), nnz*6), s, true, nil
	case ImplFactorized:
		fc := q.counts.Factorized()
		if !rankOnly {
			prog := ipe.Factorize(q.q)
			s.programs = []*ipe.Program{prog}
			fc = prog.Cost()
		}
		return simulate("factorized", fc, fc.StreamSymbols*2), s, true, nil
	case ImplIPE:
		prog, _, err := ipe.Encode(q.q, opts.IPE)
		if err != nil {
			return accel.Result{}, s, false, err
		}
		s.programs = []*ipe.Program{prog}
		ic := prog.Cost()
		return simulate("ipe", ic, ic.StreamSymbols*2+int64(prog.DictSize())*4), s, true, nil
	}
	return accel.Result{}, s, false, nil // Winograd has no fully connected form
}

// lower turns implementation im's programs into the streams the op serves
// and drops the programs: each is lowered to its compiled form now, so the
// first Run never pays the lazy compilation inside the hot path. IPE
// programs are interned through the dictionary store (a hit returns the
// canonical streams, already lowered); every stream acquired there is given
// back once, by Plan.ReleasePool. CSR and factorized programs, the
// empty-dictionary forms, are not interned: their streams stay owned by the
// op.
func (b built) lower(im Impl, store *ipe.DictStore) structure {
	if b.programs == nil {
		return b.structure
	}
	streams := make([]*ipe.Compiled, len(b.programs))
	for i, prog := range b.programs {
		if im == ImplIPE {
			streams[i] = store.Intern(prog)
		} else {
			streams[i] = prog.Compiled()
		}
	}
	return structure{streams: streams}
}

// compileGeneric models every other operator as elementwise/windowed work.
func compileGeneric(n *graph.Node, opts Options) CompiledOp {
	outElems := int64(n.OutShape.NumElements())
	var inElems int64
	for _, in := range n.Inputs {
		inElems += int64(in.OutShape.NumElements())
	}
	ops := outElems
	switch n.Kind {
	case graph.OpMaxPool, graph.OpAvgPool:
		ops = outElems * int64(n.Attrs.Pool.KH*n.Attrs.Pool.KW)
	case graph.OpGlobalAvgPool:
		ops = inElems
	case graph.OpBatchNorm:
		ops = 2 * outElems
	case graph.OpSoftmax:
		ops = 4 * outElems
	case graph.OpFlatten:
		ops = 0
	}
	prof := accel.KernelProfile{
		Name: n.Kind.String(), Adds: ops,
		SRAMAccesses: inElems + outElems,
		DRAMBytes:    (inElems + outElems) * 4,
	}
	sim := opts.HW.Simulate(prof)
	return CompiledOp{
		Node: n, Impl: ImplDense, Sim: sim,
		Candidates: map[Impl]accel.Result{ImplDense: sim},
	}
}

// chooseImpl picks the candidate with the fewest simulated cycles (a tie
// goes to the earlier in implOrder).
func chooseImpl(cands map[Impl]accel.Result) Impl {
	best, bestCycles := ImplDense, int64(1)<<62
	for _, im := range implOrder {
		if r, ok := cands[im]; ok && r.Cycles < bestCycles {
			best, bestCycles = im, r.Cycles
		}
	}
	return best
}

// Run executes the plan on the CPU using a pooled Executor: every kernel
// writes directly into its planned arena slot (destination passing). The
// returned tensor is an independent copy, so it stays valid after the
// executor goes back to the pool; serving paths that want the zero-copy
// result should use AcquireExecutor/Executor.Run directly.
func (p *Plan) Run(input *tensor.Tensor) (*tensor.Tensor, error) {
	e := p.AcquireExecutor()
	defer p.ReleaseExecutor(e)
	out, err := e.Run(input)
	if err != nil {
		return nil, err
	}
	return out.Clone(), nil
}

// ImplCounts tallies how many conv/dense operators chose each
// implementation — the "system-level exploration" summary.
func (p *Plan) ImplCounts() map[Impl]int {
	counts := make(map[Impl]int)
	for _, op := range p.Ops {
		if op.Node.Kind == graph.OpConv || op.Node.Kind == graph.OpDense {
			counts[op.Impl]++
		}
	}
	return counts
}

// itemsOf validates an input shape against the compiled input and returns
// how many compiled batches it holds: every dimension but the first must
// match, and the first must be a positive multiple of the compiled batch.
func (p *Plan) itemsOf(shape tensor.Shape) (int, error) {
	inShape := p.Graph.In.OutShape
	if shape.Rank() != inShape.Rank() {
		return 0, fmt.Errorf("runtime: input rank %d != compiled input %v", shape.Rank(), inShape)
	}
	for d := 1; d < inShape.Rank(); d++ {
		if shape[d] != inShape[d] {
			return 0, fmt.Errorf("runtime: input shape %v does not match compiled input %v in dim %d",
				shape, inShape, d)
		}
	}
	if shape[0] <= 0 {
		return 0, fmt.Errorf("runtime: empty batch")
	}
	if shape[0]%inShape[0] != 0 {
		return 0, fmt.Errorf("runtime: batch %d is not a multiple of the compiled batch %d", shape[0], inShape[0])
	}
	return shape[0] / inShape[0], nil
}

// RunBatch executes the plan over a batch larger than the graph's compiled
// batch. The input's compiled-batch chunks are split into workers
// contiguous ranges — worker w takes chunks [w·chunks/workers,
// (w+1)·chunks/workers) — and each worker checks one Executor out of the
// plan's pool and runs its whole range in one Executor.Run, so every
// operator's weights are walked once per worker rather than once per chunk.
// Each worker copies its output into its disjoint region of the
// preallocated result, so execution is safe and deterministic, and the
// result is bit-identical to running the chunks one by one. The input
// batch must be a non-empty multiple of the compiled batch and every
// non-batch dimension must match the compiled input shape.
//
// Intra-op parallelism composes with the workers: each worker's executor
// gets GOMAXPROCS/workers shards (at least 1), and all helpers come from
// one process-wide bounded pool, so the two levels never oversubscribe the
// machine.
//
// Error semantics: a failed run discards the partial result; after every
// worker settles, the error of the failed run with the lowest first chunk
// is returned, wrapped with that chunk's index. Metrics accounting (batch
// counters and the executor checkout pairs) goes through one recorder
// captured at entry, so a concurrent metrics.Disable/Enable swap can never
// split one request's series across two recorders.
func (p *Plan) RunBatch(input *tensor.Tensor, workers int) (*tensor.Tensor, error) {
	rec := metrics.Get() // captured once: all accounting for this request lands on one recorder
	chunks, err := p.itemsOf(input.Shape())
	if err != nil {
		return nil, err
	}
	perChunk := input.NumElements() / chunks
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	if workers > chunks {
		workers = chunks
	}
	intraShards := goruntime.GOMAXPROCS(0) / workers
	if intraShards < 1 {
		intraShards = 1
	}
	// Record only after validation and clamping: rejected inputs never
	// count as dispatched batches.
	if rec != nil {
		rec.Exec.Batches.Add(1)
		rec.Exec.BatchItems.Add(int64(chunks))
	}
	outShape := p.Graph.Out.OutShape.Clone()
	outShape[0] *= chunks
	result := tensor.New(outShape...)
	perOut := result.NumElements() / chunks
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunks/workers, (w+1)*chunks/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := p.acquireExecutor(rec)
			defer p.releaseExecutor(e, rec)
			if h := runBatchChunkHook; h != nil {
				if errs[w] = h(lo); errs[w] != nil {
					return
				}
			}
			e.SetParallelism(intraShards)
			shape := input.Shape().Clone()
			shape[0] = (hi - lo) * p.Graph.In.OutShape[0]
			out, err := e.Run(tensor.From(input.Data()[lo*perChunk:hi*perChunk], shape...))
			if err != nil {
				errs[w] = err
				return
			}
			copy(result.Data()[lo*perOut:hi*perOut], out.Data())
		}()
	}
	wg.Wait()
	// Workers fail independently, so several may have; report the one
	// with the lowest first chunk so the error is deterministic for a given
	// set of failing runs, not an artifact of worker timing.
	for w, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runtime: batch chunk %d: %w", w*chunks/workers, err)
		}
	}
	return result, nil
}

// runBatchChunkHook, when non-nil, runs before each RunBatch worker's run
// with the run's first chunk index and can inject a failure for the run.
// Test-only (executor runs cannot be made to fail from outside once
// validation passed); nil in production, costing one predictable branch
// per run.
var runBatchChunkHook func(chunk int) error

// Describe renders the plan as a report table: one row per conv/dense
// operator with its chosen implementation and modeled execution, plus a
// totals footer. This is what `inspire-sim` prints.
func (p *Plan) Describe() *report.Table {
	t := report.NewTable("execution plan",
		"op", "kind", "impl", "cycles", "energy(uJ)", "DRAM")
	for _, op := range p.Ops {
		if op.Node.Kind != graph.OpConv && op.Node.Kind != graph.OpDense {
			continue
		}
		t.AddRow(op.Node.Name, op.Node.Kind.String(), op.Impl.String(),
			report.Count(op.Sim.Cycles),
			report.Num(op.Sim.EnergyPJ/1e6),
			report.Bytes(op.Sim.DRAMBytes))
	}
	t.AddRow("TOTAL", "", "",
		report.Count(p.Total.Cycles),
		report.Num(p.Total.EnergyPJ/1e6),
		report.Bytes(p.Total.DRAMBytes))
	return t
}
