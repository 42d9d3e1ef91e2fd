package runtime

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/ipe"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestPlanMemoryReusesBuffers(t *testing.T) {
	// A linear chain should need only ~2 buffers' worth of arena, far less
	// than the sum of all outputs.
	g := graph.New("in", 1, 1, 16, 16)
	x := g.In
	for i := 0; i < 10; i++ {
		x = g.ReLU(x, "r")
	}
	g.SetOutput(x)
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	plans, arena, err := PlanMemory(g)
	if err != nil {
		t.Fatal(err)
	}
	bufBytes := int64(16*16) * 4
	if arena > 2*bufBytes {
		t.Fatalf("chain of 10 ReLUs should reuse: arena %d > 2 buffers %d", arena, 2*bufBytes)
	}
	if err := ValidatePlan(g, plans, arena); err != nil {
		t.Fatal(err)
	}
}

func TestPlanMemoryKeepsResidualAlive(t *testing.T) {
	// Residual pattern: x feeds both a long chain and a late Add; x's
	// buffer must stay allocated until the Add consumes it.
	g := graph.New("in", 1, 8)
	w := tensor.New(8, 8).Fill(0.1)
	x := g.Dense(g.In, "pre", w, nil)
	y := x
	for i := 0; i < 5; i++ {
		y = g.ReLU(y, "r")
	}
	g.SetOutput(g.Add(y, x, "res"))
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	plans, arena, err := PlanMemory(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePlan(g, plans, arena); err != nil {
		t.Fatal(err)
	}
}

func TestPlanMemoryValidOnModelsProperty(t *testing.T) {
	// The planner invariant must hold on every zoo model.
	for _, m := range nn.Zoo(32) {
		g := m.Build(1, 5)
		if err := graph.Optimize(g); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		plans, arena, err := PlanMemory(g)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if err := ValidatePlan(g, plans, arena); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		// Arena must be smaller than the no-reuse sum.
		var total int64
		for _, al := range plans {
			total += al.Size
		}
		if arena >= total && len(plans) > 3 {
			t.Errorf("%s: planner achieved no reuse (arena %d, sum %d)", m.Name, arena, total)
		}
	}
}

func TestPlanMemoryRandomChainsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		g := graph.New("in", 1, 4, 8, 8)
		nodes := []*graph.Node{g.In}
		for i := 0; i < 3+r.Intn(10); i++ {
			src := nodes[r.Intn(len(nodes))]
			var n *graph.Node
			if r.Intn(3) == 0 && len(nodes) > 1 {
				other := nodes[r.Intn(len(nodes))]
				if other.OutShape.Equal(src.OutShape) {
					n = g.Add(src, other, "add")
				} else {
					n = g.ReLU(src, "relu")
				}
			} else {
				n = g.ReLU(src, "relu")
			}
			n.OutShape = src.OutShape
			nodes = append(nodes, n)
		}
		g.SetOutput(nodes[len(nodes)-1])
		if err := g.InferShapes(); err != nil {
			return false
		}
		plans, arena, err := PlanMemory(g)
		if err != nil {
			return false
		}
		return ValidatePlan(g, plans, arena) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func lenetPlan(t *testing.T, opts Options) (*Plan, *tensor.Tensor) {
	t.Helper()
	g := nn.LeNet5(2, 7)
	plan, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(8)
	in := tensor.New(2, 1, 28, 28)
	tensor.FillGaussian(in, r, 1)
	return plan, in
}

func TestCompileAndRunDenseMatchesReference(t *testing.T) {
	plan, in := lenetPlan(t, Options{Force: ImplDense})
	got, err := plan.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := graph.Eval(plan.Graph, in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got, want, 1e-4, 1e-4) {
		t.Fatalf("dense plan diverges from reference: %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestRunQuantizedImplsCloseToReference(t *testing.T) {
	// At 8 bits the quantized implementations should track the float
	// reference closely on softmax outputs.
	for _, force := range []Impl{ImplCSR, ImplFactorized, ImplIPE} {
		plan, in := lenetPlan(t, Options{Force: force, Bits: 8})
		got, err := plan.Run(in)
		if err != nil {
			t.Fatalf("%v: %v", force, err)
		}
		want, err := graph.Eval(plan.Graph, in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(got, want, 0.05, 0.05) {
			t.Fatalf("%v plan diverges: max diff %v", force, tensor.MaxAbsDiff(got, want))
		}
	}
}

func TestAutoSelectionPicksMinCycles(t *testing.T) {
	plan, _ := lenetPlan(t, Options{Bits: 4})
	for _, op := range plan.Ops {
		if op.Node.Kind != graph.OpConv && op.Node.Kind != graph.OpDense {
			continue
		}
		for im, r := range op.Candidates {
			if r.Cycles < op.Sim.Cycles {
				t.Fatalf("%s: auto chose %v (%d cycles) but %v has %d",
					op.Node, op.Impl, op.Sim.Cycles, im, r.Cycles)
			}
		}
	}
}

func TestForcePinsImplementation(t *testing.T) {
	plan, _ := lenetPlan(t, Options{Force: ImplIPE})
	counts := plan.ImplCounts()
	total := 0
	for im, c := range counts {
		if im != ImplIPE && c > 0 {
			t.Fatalf("forced IPE plan contains %v", im)
		}
		total += c
	}
	if total == 0 {
		t.Fatal("no conv/dense ops compiled")
	}
}

func TestPlanTotalsAccumulate(t *testing.T) {
	plan, _ := lenetPlan(t, Options{Bits: 4})
	var sum int64
	for _, op := range plan.Ops {
		sum += op.Sim.Cycles
	}
	if plan.Total.Cycles != sum {
		t.Fatalf("Total.Cycles %d != per-op sum %d", plan.Total.Cycles, sum)
	}
	if plan.Total.EnergyPJ <= 0 {
		t.Fatal("total energy must be positive")
	}
}

func TestRunRejectsWrongInput(t *testing.T) {
	plan, _ := lenetPlan(t, Options{Force: ImplDense})
	if _, err := plan.Run(tensor.New(1, 1, 28, 28)); err == nil {
		t.Fatal("wrong input batch must be rejected")
	}
}

func TestCompileResNetAutoHasIPEWins(t *testing.T) {
	// On a 4-bit ResNet-18 at 32x32, auto selection should pick IPE for at
	// least some layers — the system-level exploration claim.
	g := nn.ResNet18(1, 32, 10, 9)
	plan, err := Compile(g, Options{Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := plan.ImplCounts()
	if counts[ImplIPE] == 0 {
		t.Fatalf("expected some IPE selections, got %v", counts)
	}
	// And the plan must execute.
	r := tensor.NewRNG(10)
	in := tensor.New(1, 3, 32, 32)
	tensor.FillGaussian(in, r, 1)
	out, err := plan.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape().Equal(tensor.Shape{1, 10}) {
		t.Fatalf("output shape %v", out.Shape())
	}
}

func TestImplString(t *testing.T) {
	if ImplIPE.String() != "ipe" || Impl(42).String() != "Impl(42)" {
		t.Fatal("impl names wrong")
	}
}

func TestCompileDefaultsApplied(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Bits != 4 || o.HW.PEs == 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	if o.IPE != ipe.DefaultConfig() {
		t.Fatal("default IPE config not applied")
	}
}

func TestWinogradImplMatchesReference(t *testing.T) {
	// Force Winograd on a conv net: applicable 3x3/s1 convs run Winograd,
	// everything else falls back to dense; output must track the float
	// reference closely (Winograd is exact dense math up to rounding).
	g := nn.ResNet18(1, 32, 10, 4)
	plan, err := Compile(g, Options{Force: ImplWinograd})
	if err != nil {
		t.Fatal(err)
	}
	counts := plan.ImplCounts()
	if counts[ImplWinograd] == 0 {
		t.Fatalf("no winograd selections on ResNet-18: %v", counts)
	}
	if counts[ImplDense] == 0 {
		t.Fatalf("strided/1x1 convs should fall back to dense: %v", counts)
	}
	r := tensor.NewRNG(5)
	in := tensor.New(1, 3, 32, 32)
	tensor.FillGaussian(in, r, 1)
	got, err := plan.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := graph.Eval(plan.Graph, in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got, want, 1e-2, 1e-2) {
		t.Fatalf("winograd plan diverges: %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestAutoConsidersWinograd(t *testing.T) {
	// In auto mode the winograd candidate must be present for applicable
	// convs (whether or not it wins).
	g := nn.ResNet18(1, 32, 10, 6)
	plan, err := Compile(g, Options{Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, op := range plan.Ops {
		if op.Node.Kind != graph.OpConv {
			continue
		}
		s := op.Node.Attrs.Conv
		if s.KH == 3 && s.StrideH == 1 && s.Groups <= 1 {
			if _, ok := op.Candidates[ImplWinograd]; !ok {
				t.Fatalf("%s: 3x3/s1 conv missing winograd candidate", op.Node)
			}
			seen = true
		}
	}
	if !seen {
		t.Fatal("no applicable convs found")
	}
}

// TestParallelCompileDeterministic: Compile's workers race, so which
// operator interns a program into the shared dictionary store first
// depends on the worker count and the scheduler. The plan must not:
// at 1, 2 and 8 workers every op keeps the same implementation, cycles and
// served structure (compiled streams, Winograd and dense weights), the plan
// the same resident bytes, and one Run the same output bits.
func TestParallelCompileDeterministic(t *testing.T) {
	build := func(workers int) *Plan {
		g := nn.ResNet18(1, 32, 10, 13)
		plan, err := Compile(g, Options{Bits: 4, Workers: workers, DictStore: ipe.NewDictStore()})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	in := tensor.New(1, 3, 32, 32)
	tensor.FillGaussian(in, tensor.NewRNG(21), 1)
	run := func(p *Plan) []byte {
		out, err := p.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		return floatBits(out.Data())
	}
	a := build(1)
	aOwned, aShared := a.ResidentBytes(nil)
	aOut := run(a)
	for _, workers := range []int{2, 8} {
		b := build(workers)
		if len(a.Ops) != len(b.Ops) {
			t.Fatalf("workers=%d: op counts differ: %d vs %d", workers, len(a.Ops), len(b.Ops))
		}
		for i := range a.Ops {
			if a.Ops[i].Impl != b.Ops[i].Impl || a.Ops[i].Sim.Cycles != b.Ops[i].Sim.Cycles {
				t.Fatalf("workers=%d: op %d differs: %v/%d vs %v/%d", workers,
					i, a.Ops[i].Impl, a.Ops[i].Sim.Cycles, b.Ops[i].Impl, b.Ops[i].Sim.Cycles)
			}
			if !reflect.DeepEqual(a.Ops[i].structure, b.Ops[i].structure) {
				t.Fatalf("workers=%d: op %d (%s, %v) serves a different structure", workers, i, a.Ops[i].Node, a.Ops[i].Impl)
			}
		}
		if a.Total.Cycles != b.Total.Cycles {
			t.Fatalf("workers=%d: totals differ: %d vs %d", workers, a.Total.Cycles, b.Total.Cycles)
		}
		if owned, shared := b.ResidentBytes(nil); owned != aOwned || shared != aShared {
			t.Fatalf("workers=%d: resident bytes %d owned / %d shared, want %d / %d", workers, owned, shared, aOwned, aShared)
		}
		if !bytes.Equal(run(b), aOut) {
			t.Fatalf("workers=%d: Run output bits differ", workers)
		}
	}
}

func floatBits(v []float32) []byte {
	out := make([]byte, 0, 4*len(v))
	for _, f := range v {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(f))
	}
	return out
}

func TestRunBatchMatchesSequential(t *testing.T) {
	g := nn.LeNet5(2, 7)
	plan, err := Compile(g, Options{Force: ImplDense})
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(20)
	big := tensor.New(8, 1, 28, 28) // 4 chunks of the compiled batch 2
	tensor.FillGaussian(big, r, 1)
	got, err := plan.RunBatch(big, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Shape().Equal(tensor.Shape{8, 10}) {
		t.Fatalf("RunBatch shape = %v", got.Shape())
	}
	// Sequential reference: run each chunk through Run.
	for c := 0; c < 4; c++ {
		chunk := tensor.From(big.Data()[c*2*28*28:(c+1)*2*28*28], 2, 1, 28, 28)
		want, err := plan.Run(chunk)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 2; b++ {
			for i := 0; i < 10; i++ {
				if got.At(c*2+b, i) != want.At(b, i) {
					t.Fatalf("chunk %d row %d diverges", c, b)
				}
			}
		}
	}
}

func TestRunBatchRejectsNonMultiple(t *testing.T) {
	g := nn.LeNet5(2, 7)
	plan, err := Compile(g, Options{Force: ImplDense})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.RunBatch(tensor.New(3, 1, 28, 28), 2); err == nil {
		t.Fatal("non-multiple batch must be rejected")
	}
}

func TestDescribeTable(t *testing.T) {
	plan, _ := lenetPlan(t, Options{Bits: 4})
	tbl := plan.Describe()
	if tbl.NumRows() < 3 { // 2 convs + 3 denses + TOTAL ≥ 3
		t.Fatalf("Describe rows = %d", tbl.NumRows())
	}
}

func TestCompileSqueezeNetAuto(t *testing.T) {
	// SqueezeNet exercises Concat through the runtime's generic path plus
	// 1x1-heavy convs through the encoded paths.
	g := nn.SqueezeNet(1, 32, 10, 14)
	plan, err := Compile(g, Options{Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(15)
	in := tensor.New(1, 3, 32, 32)
	tensor.FillGaussian(in, r, 1)
	out, err := plan.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape().Equal(tensor.Shape{1, 10}) {
		t.Fatalf("output shape %v", out.Shape())
	}
	var sum float64
	for _, v := range out.Data() {
		sum += float64(v)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("softmax sum %v", sum)
	}
	if err := ValidatePlan(plan.Graph, plan.Alloc, plan.ArenaBytes); err != nil {
		t.Fatal(err)
	}
}

func TestCompileMobileNetForcedIPE(t *testing.T) {
	// Depthwise-separable structure through the grouped IPE path.
	g := nn.MobileNetV1(1, 32, 10, 16)
	plan, err := Compile(g, Options{Force: ImplIPE, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(17)
	in := tensor.New(1, 3, 32, 32)
	tensor.FillGaussian(in, r, 1)
	out, err := plan.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape().Equal(tensor.Shape{1, 10}) {
		t.Fatalf("output shape %v", out.Shape())
	}
}

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

// wideConvGraph is one 3x3 stride-1 conv with enough channels that
// Winograd's multiply savings win the ranking.
func wideConvGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("in", 1, 32, 16, 16)
	spec := tensor.ConvSpec{InC: 32, OutC: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	r := tensor.NewRNG(23)
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.5)
	b := tensor.New(spec.OutC)
	tensor.FillGaussian(b, r, 0.1)
	g.SetOutput(g.Conv(g.In, "c1", spec, w, b))
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	return g
}

// sparseConvGraph is one 1x1 conv whose weights are 95% zeros. At 8 bits
// nearly every nonzero of an output channel has a code of its own, so the
// factorized program saves no multiply and CSR wins the ranking on its
// smaller stream. (On a fully connected layer the model charges factorized
// no more operations than CSR and 2 bytes a symbol against CSR's 6 a
// nonzero, so there CSR can at best tie it.)
func sparseConvGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("in", 1, 32, 8, 8)
	spec := tensor.ConvSpec{InC: 32, OutC: 32, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	r := tensor.NewRNG(29)
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.5)
	for i := range w.Data() {
		if r.Float64() < 0.95 {
			w.Data()[i] = 0
		}
	}
	b := tensor.New(spec.OutC)
	tensor.FillGaussian(b, r, 0.1)
	g.SetOutput(g.Conv(g.In, "c1", spec, w, b))
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAutoBuildsOnlyItsPick: an auto plan keeps no structure of a ranked
// loser, so it interns no losing IPE program and owns exactly the resident
// bytes of the plan forced to its pick. CSR and Winograd are ranked without being built; when one of them
// wins, Compile builds it after ranking, and the auto plan runs
// bit-identically to the forced one.
func TestAutoBuildsOnlyItsPick(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     func(*testing.T) *graph.Graph
		want  Impl
		built func(*CompiledOp) bool
	}{
		{"csr", sparseConvGraph, ImplCSR, func(op *CompiledOp) bool { return op.streams != nil }},
		{"winograd", wideConvGraph, ImplWinograd, func(op *CompiledOp) bool { return op.winConv != nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := ipe.NewDictStore()
			auto, err := Compile(tc.g(t), Options{Bits: 8, DictStore: store})
			if err != nil {
				t.Fatal(err)
			}
			if store.Len() != 0 {
				t.Fatalf("auto picked %s but interned %d programs of a ranked loser", tc.want, store.Len())
			}
			forced, err := Compile(tc.g(t), Options{Bits: 8, Force: tc.want})
			if err != nil {
				t.Fatal(err)
			}
			for i := range auto.Ops {
				op := &auto.Ops[i]
				if k := op.Node.Kind; k != graph.OpConv && k != graph.OpDense {
					continue
				}
				if len(op.Candidates) < 3 || op.Impl != tc.want {
					t.Fatalf("%s: auto ranked %d candidates and picked %s, want %s among several",
						op.Node.Name, len(op.Candidates), op.Impl, tc.want)
				}
				if !tc.built(op) {
					t.Fatalf("%s: auto picked %s but did not build it", op.Node.Name, op.Impl)
				}
			}
			autoOwned, _ := auto.ResidentBytes(nil)
			forcedOwned, _ := forced.ResidentBytes(nil)
			if autoOwned != forcedOwned {
				t.Fatalf("auto plan owns %d bytes, plan forced to %s owns %d: a ranked loser stayed resident",
					autoOwned, tc.want, forcedOwned)
			}
			in := gaussianInput(auto.Graph.In.OutShape, 3)
			got, err := auto.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := forced.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			expectBitsEqual(t, tc.name, got.Data(), want.Data())
		})
	}
}
