package runtime

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/autotune"
	"repro/internal/graph"
	"repro/internal/ipe"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// convGraph builds a single 3x3 stride-1 conv (the shape every candidate
// implementation supports, winograd included) over a batch-n input.
func convGraph(t *testing.T, batch int) *graph.Graph {
	t.Helper()
	g := graph.New("in", batch, 1, 8, 8)
	spec := tensor.ConvSpec{InC: 1, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	r := tensor.NewRNG(17)
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.5)
	b := tensor.New(4)
	tensor.FillGaussian(b, r, 0.1)
	c := g.Conv(g.In, "c1", spec, w, b)
	g.SetOutput(c)
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	return g
}

// convOp returns the plan's compiled conv operator.
func convOp(t *testing.T, p *Plan) *CompiledOp {
	t.Helper()
	for i := range p.Ops {
		if p.Ops[i].Node.Kind == graph.OpConv {
			return &p.Ops[i]
		}
	}
	t.Fatal("no conv op in plan")
	return nil
}

// altImpl picks a built candidate different from the op's current choice.
func altImpl(t *testing.T, op *CompiledOp) Impl {
	t.Helper()
	for _, im := range op.tunableArms() {
		if im != op.Impl {
			return im
		}
	}
	t.Fatal("no alternate candidate")
	return ImplAuto
}

// TestTuningStoreSeedsPlan: a persisted winner for the operator's exact
// (shape, impl, parallelism) overrides the simulator's pick at compile time;
// entries for other parallelism or unknown impls never leak in, and forced
// plans ignore the store entirely.
func TestTuningStoreSeedsPlan(t *testing.T) {
	opts := Options{Bits: 8}
	base, err := Compile(convGraph(t, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	op := convOp(t, base)
	alt := altImpl(t, op)
	if len(op.tunableArms()) < 2 {
		t.Fatalf("conv built %d candidates, need >= 2", len(op.tunableArms()))
	}

	store := autotune.NewStore()
	store.Put(autotune.Key{Shape: op.shapeKey, Impl: alt.String(), Par: 0},
		autotune.Entry{MeanNs: 1, Samples: 100, UpdatedUnixNs: 1})

	opts.TuningStore = store
	seeded, err := Compile(convGraph(t, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := convOp(t, seeded).Impl; got != alt {
		t.Fatalf("seeded plan chose %s, want stored winner %s", got, alt)
	}

	// A winner measured under a different parallelism must not seed p0.
	other := autotune.NewStore()
	other.Put(autotune.Key{Shape: op.shapeKey, Impl: alt.String(), Par: 8},
		autotune.Entry{MeanNs: 1, Samples: 100})
	opts.TuningStore = other
	unseeded, err := Compile(convGraph(t, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := convOp(t, unseeded).Impl; got != op.Impl {
		t.Fatalf("p8 entry leaked into p0 plan: got %s, want %s", got, op.Impl)
	}

	// Under-sampled entries never seed.
	thin := autotune.NewStore()
	thin.Put(autotune.Key{Shape: op.shapeKey, Impl: alt.String(), Par: 0},
		autotune.Entry{MeanNs: 1, Samples: 2})
	opts.TuningStore = thin
	if p, err := Compile(convGraph(t, 1), opts); err != nil {
		t.Fatal(err)
	} else if got := convOp(t, p).Impl; got != op.Impl {
		t.Fatalf("under-sampled entry seeded the plan: got %s", got)
	}

	// Forced plans serve the forced impl no matter what the store says.
	opts.TuningStore = store
	opts.Force = ImplDense
	forced, err := Compile(convGraph(t, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := convOp(t, forced).Impl; got != ImplDense {
		t.Fatalf("store overrode a forced plan: got %s", got)
	}
}

// TestTuningStoreSeedsCSR and TestTuningStoreSeedsWinograd: auto ranks
// CSR and Winograd without building them, so a stored winner that
// overrides the simulator's pick must be built after seeding. The seeded
// plan must run, with output bit-identical to the plan forced to the
// winner.
func TestTuningStoreSeedsCSR(t *testing.T) {
	testStoreSeedsUnbuilt(t, denseGraph(t, 5), ImplCSR)
}

func TestTuningStoreSeedsWinograd(t *testing.T) {
	testStoreSeedsUnbuilt(t, convGraph(t, 1), ImplWinograd)
}

func testStoreSeedsUnbuilt(t *testing.T, g *graph.Graph, winner Impl) {
	t.Helper()
	opts := Options{Bits: 8}
	base, err := Compile(g.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	store := autotune.NewStore()
	seeds := 0
	for i := range base.Ops {
		op := &base.Ops[i]
		if _, ok := op.Candidates[winner]; !ok || op.Impl == winner {
			continue
		}
		if op.built(winner) {
			t.Fatalf("%s: auto built %s, which it ranked and did not pick", op.Node.Name, winner)
		}
		store.Put(autotune.Key{Shape: op.shapeKey, Impl: winner.String(), Par: 0},
			autotune.Entry{MeanNs: 1, Samples: 100, UpdatedUnixNs: 1})
		seeds++
	}
	if seeds == 0 {
		t.Fatalf("no operator ranks %s below auto's pick", winner)
	}

	opts.TuningStore = store
	seeded, err := Compile(g.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeded.Ops {
		op := &seeded.Ops[i]
		if _, ok := op.Candidates[winner]; ok && (op.Impl != winner || !op.built(winner)) {
			t.Fatalf("%s: seeded plan serves %s (%s built: %v), want the stored winner built", op.Node.Name, op.Impl, winner, op.built(winner))
		}
	}
	forced, err := Compile(g.Clone(), Options{Bits: 8, Force: winner})
	if err != nil {
		t.Fatal(err)
	}
	in := gaussianInput(g.In.OutShape, 3)
	got, err := seeded.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := forced.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(w) {
			t.Fatalf("seeded %s plan output[%d] = %v, forced plan %v", winner, i, got.Data()[i], w)
		}
	}
}

// TestTunerRebuildsDroppedArms: an auto plan keeps only each operator's
// selected structure, so nothing it will never dispatch stays resident;
// StartTuner rebuilds every other arm before routing to it, interning a
// rebuilt IPE arm, and retiring the plan gives every interned program back.
func TestTunerRebuildsDroppedArms(t *testing.T) {
	store := ipe.NewDictStore()
	plan, err := Compile(denseGraph(t, 5), Options{Bits: 8, DictStore: store})
	if err != nil {
		t.Fatal(err)
	}
	tuned := 0
	for i := range plan.Ops {
		op := &plan.Ops[i]
		for _, im := range op.tunableArms() {
			if op.built(im) != (im == op.Impl) {
				t.Errorf("%s after Compile: %s built = %v, selected %s", op.Node.Name, im, op.built(im), op.Impl)
			}
		}
		if len(op.tunableArms()) >= 2 {
			tuned++
		}
	}
	if tuned != 2 {
		t.Fatalf("%d tunable operators, want conv and dense", tuned)
	}
	pt, err := plan.StartTuner(TunerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.Ops {
		op := &plan.Ops[i]
		for _, im := range op.tunableArms() {
			if !op.built(im) {
				t.Errorf("%s after StartTuner: arm %s not built", op.Node.Name, im)
			}
		}
	}
	if store.Len() != len(plan.IPEPrograms()) || store.Len() == 0 {
		t.Fatalf("store holds %d programs, plan references %d", store.Len(), len(plan.IPEPrograms()))
	}
	if err := pt.Stop(); err != nil {
		t.Fatal(err)
	}
	plan.ReleasePool()
	if store.Len() != 0 {
		t.Fatalf("retired plan left %d programs interned", store.Len())
	}
}

func TestStartTunerErrors(t *testing.T) {
	forced, err := Compile(convGraph(t, 1), Options{Bits: 8, Force: ImplIPE})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := forced.StartTuner(TunerConfig{}); err == nil {
		t.Error("StartTuner accepted a forced plan")
	}

	plan, err := Compile(convGraph(t, 1), Options{Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := plan.StartTuner(TunerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.StartTuner(TunerConfig{}); err == nil {
		t.Error("StartTuner accepted a second session on the same plan")
	}
	if err := pt.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestTunerPromotesAndSeedsRestartedServer is the end-to-end loop: scripted
// latency series drive a promotion, Stop persists the winner, and a plan
// compiled from the reloaded cache — a restarted server — serves the
// promoted implementation on its first request.
func TestTunerPromotesAndSeedsRestartedServer(t *testing.T) {
	rec := EnableMetrics()
	defer DisableMetrics()

	plan, err := Compile(convGraph(t, 1), Options{Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan.MetricsPrefix = "warm/"
	op := convOp(t, plan)
	incumbent, alt := op.Impl, altImpl(t, op)

	path := filepath.Join(t.TempDir(), "tuning.json")
	store := autotune.NewStore()
	pt, err := plan.StartTuner(TunerConfig{Store: store, StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	layer := rec.Layer("warm/" + op.Node.Name)
	incK := stepKernelFor(graph.OpConv, incumbent)
	altK := stepKernelFor(graph.OpConv, alt)

	// Script the reward series directly: the incumbent serves at 1ms, the
	// alternate at 0.1ms. Each poll sees a fresh batch of both.
	promoted := false
	for i := 0; i < 50 && !promoted; i++ {
		for j := 0; j < 20; j++ {
			layer.Record(incK, 1_000_000, 1)
		}
		for j := 0; j < 5; j++ {
			layer.Record(altK, 100_000, 1)
		}
		promoted = pt.Poll() > 0
	}
	if !promoted {
		t.Fatal("tuner never promoted a 10x faster alternate")
	}
	st := pt.State()
	if len(st) != 1 || st[0].Current != alt.String() {
		t.Fatalf("tuner state %+v, want current %s", st, alt)
	}
	if err := pt.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(autotune.Key{Shape: op.shapeKey, Impl: alt.String(), Par: 0}); !ok {
		t.Fatalf("winner not written back to store: %v", store.Snapshot())
	}

	// "Restart": reload the cache from disk and compile a fresh plan.
	reloaded, err := autotune.LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Compile(convGraph(t, 1), Options{Bits: 8, TuningStore: reloaded})
	if err != nil {
		t.Fatal(err)
	}
	if got := convOp(t, warm).Impl; got != alt {
		t.Fatalf("restarted server plans %s on first request, want tuned %s", got, alt)
	}
}

// TestTunerFrozenAfterStopRoutesWinner: after Stop, executions keep serving
// the promoted arm with exploration off.
func TestTunerFrozenAfterStopRoutesWinner(t *testing.T) {
	rec := EnableMetrics()
	defer DisableMetrics()
	plan, err := Compile(convGraph(t, 1), Options{Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	op := convOp(t, plan)
	alt := altImpl(t, op)
	pt, err := plan.StartTuner(TunerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	layer := rec.Layer(op.Node.Name)
	for i := 0; i < 50; i++ {
		for j := 0; j < 20; j++ {
			layer.Record(stepKernelFor(graph.OpConv, op.Impl), 1_000_000, 1)
		}
		for j := 0; j < 5; j++ {
			layer.Record(stepKernelFor(graph.OpConv, alt), 100_000, 1)
		}
		if pt.Poll() > 0 {
			break
		}
	}
	if err := pt.Stop(); err != nil {
		t.Fatal(err)
	}

	// All post-Stop executions must run the promoted kernel: compare against
	// the forced-alt plan's output, and check the bandit's counters while
	// frozen (chooses stop advancing).
	in := tensor.New(1, 1, 8, 8)
	tensor.FillGaussian(in, tensor.NewRNG(3), 1)
	want := forcedOutput(t, alt, in)
	c0, _, _ := counts(pt)
	for i := 0; i < 8; i++ {
		got, err := plan.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f32bytes(got.Data()), f32bytes(want.Data())) {
			t.Fatalf("run %d: frozen plan did not serve the promoted impl %s", i, alt)
		}
	}
	if c1, _, _ := counts(pt); c1 != c0 {
		t.Errorf("frozen tuner still counting chooses: %d -> %d", c0, c1)
	}
}

func counts(pt *PlanTuner) (chooses, explores, promos int64) {
	st := pt.State()
	for _, l := range st {
		chooses += l.Chooses
		explores += l.Explores
		promos += l.Promotions
	}
	return
}

// forcedOutput runs the conv graph with one forced implementation.
func forcedOutput(t *testing.T, im Impl, in *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	p, err := Compile(convGraph(t, in.Dim(0)), Options{Bits: 8, Force: im})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func f32bytes(d []float32) []byte {
	buf := make([]byte, 4*len(d))
	for i, v := range d {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32frombits(v))
	}
	return buf
}

func uint32frombits(f float32) uint32 { return math.Float32bits(f) }

// TestTunerLiveRoutingBitCompatible is the race-gated integration test: a
// bandit explores on a live plan while concurrent runs execute and metrics
// flip on and off. Every single output must be byte-identical to one of the
// forced-implementation plans' outputs for the same input — exploration may
// pick any proven candidate, but never perturb a result — and exploration
// must actually happen. Promotion is disabled so the arm set stays put.
func TestTunerLiveRoutingBitCompatible(t *testing.T) {
	EnableMetrics()
	defer DisableMetrics()

	const batch = 2
	in := tensor.New(batch, 1, 8, 8)
	tensor.FillGaussian(in, tensor.NewRNG(5), 1)

	plan, err := Compile(convGraph(t, batch), Options{Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	op := convOp(t, plan)

	// One reference output per candidate arm, keyed by its bytes. Per-batch
	// rows are also collected so chunked RunBatch outputs (which may mix
	// arms across chunks) stay checkable row by row.
	arms := op.tunableArms()
	if len(arms) < 2 {
		t.Fatalf("conv built %d arms, need >= 2", len(arms))
	}
	whole := make(map[string]bool, len(arms))
	rowSet := make(map[string]bool, len(arms)*batch)
	rowLen := 0
	for _, im := range arms {
		out := forcedOutput(t, im, in)
		whole[string(f32bytes(out.Data()))] = true
		rowLen = len(out.Data()) / batch
		for b := 0; b < batch; b++ {
			rowSet[rowKey(b, out.Data()[b*rowLen:(b+1)*rowLen])] = true
		}
	}

	pt, err := plan.StartTuner(TunerConfig{
		// Explore aggressively, promote never: the output set must not shift
		// under the checkers' feet.
		Policy: autotune.Policy{ExplorePeriod: 4, MinSamples: 1 << 40, Hysteresis: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		runners = 4
		iters   = 150
	)
	var wg sync.WaitGroup
	var failures atomic.Int32
	fail := func(format string, args ...any) {
		if failures.Add(1) == 1 {
			t.Errorf(format, args...)
		}
	}
	stopToggle := make(chan struct{})
	wg.Add(1)
	go func() { // metrics churn: recorder swaps mid-flight must not corrupt outputs
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopToggle:
				return
			default:
			}
			if i%2 == 0 {
				DisableMetrics()
			} else {
				EnableMetrics()
			}
		}
	}()
	for w := 0; w < runners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var out *tensor.Tensor
				var err error
				if i%3 == 0 {
					out, err = plan.RunBatch(in, 2)
				} else {
					out, err = plan.Run(in)
				}
				if err != nil {
					fail("runner %d iter %d: %v", w, i, err)
					return
				}
				data := out.Data()
				if string(f32bytes(data)) == "" { // unreachable; keeps data live
					return
				}
				for b := 0; b < batch; b++ {
					if !rowSet[rowKey(b, data[b*rowLen:(b+1)*rowLen])] {
						fail("runner %d iter %d: row %d matches no candidate implementation", w, i, b)
						return
					}
				}
				if i%3 != 0 && !whole[string(f32bytes(data))] {
					fail("runner %d iter %d: unchunked output matches no candidate implementation", w, i)
					return
				}
			}
		}(w)
	}
	// Poll concurrently too: the promotion path must be race-free even if it
	// never promotes.
	for i := 0; i < 20; i++ {
		if pt.Poll() != 0 {
			t.Error("promotion happened with MinSamples disabled")
		}
	}
	close(stopToggle)
	wg.Wait()
	EnableMetrics()

	if failures.Load() > 0 {
		t.FailNow()
	}
	chooses, explores, promos := counts(pt)
	if explores == 0 {
		t.Error("bandit never explored under live traffic")
	}
	if promos != 0 {
		t.Errorf("bandit promoted %d times with promotion disabled", promos)
	}
	// The exploration fraction stays exactly bounded under concurrency.
	if want := chooses / 4; explores != want {
		t.Errorf("explores = %d, want exactly chooses/period = %d", explores, want)
	}
	if err := pt.Stop(); err != nil {
		t.Fatal(err)
	}
}

func rowKey(b int, row []float32) string {
	return string(rune('0'+b)) + string(f32bytes(row))
}

// TestMetricsArmReaderComparesPerItem pins the per-item reward: the
// incumbent arm is sampled only on 4-item runs and the alternate only on
// 1-item runs, with the alternate 20% slower per item. Counted per run the
// incumbent would look 3.3× slower and lose; counted per item it must
// keep serving, and each sample's mean must be the per-item latency.
func TestMetricsArmReaderComparesPerItem(t *testing.T) {
	rec := EnableMetrics()
	defer DisableMetrics()
	const layer = "per-item/c1"
	reader := &metricsArmReader{kernels: map[string]metrics.Kernel{
		layer + "|ipe": metrics.KernelIPECompiled,
		layer + "|csr": metrics.KernelCSR,
	}}
	pol := autotune.Policy{MinSamples: 4, Hysteresis: 1}
	b, err := autotune.NewBandit(pol, reader, []autotune.TunedLayer{
		{Name: layer, Shape: "s", Arms: []string{"ipe", "csr"}, Initial: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := rec.Layer(layer)
	for poll := 0; poll < 5; poll++ {
		for i := 0; i < 10; i++ {
			stats.Record(metrics.KernelIPECompiled, 4*1000, 4)
			stats.Record(metrics.KernelCSR, 1200, 1)
		}
		if promoted := b.Poll(); promoted != 0 {
			t.Fatalf("poll %d promoted the per-item slower arm", poll)
		}
	}
	if got := b.Layers()[0].CurrentArm(); got != "ipe" {
		t.Fatalf("serving arm = %q, want ipe", got)
	}
	for arm, want := range map[string]int64{"ipe": 1000, "csr": 1200} {
		s := reader.Sample(layer, arm)
		if s.Count == 0 || s.SumNs/s.Count != want {
			t.Errorf("%s sample %+v: per-item mean %d, want %d", arm, s, s.SumNs/max(s.Count, 1), want)
		}
	}
}
