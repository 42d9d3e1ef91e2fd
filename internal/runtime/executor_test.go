package runtime

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// gaussianInput builds a deterministic random input for the given shape.
func gaussianInput(shape tensor.Shape, seed uint64) *tensor.Tensor {
	in := tensor.New(shape...)
	tensor.FillGaussian(in, tensor.NewRNG(seed), 1)
	return in
}

// referenceRun replicates the pre-executor Plan.Run: every operator runs an
// allocating kernel, and the result is copied into the planned arena slot.
// The destination-passing Executor must match it bit for bit, since the Into
// kernels preserve loop order exactly.
func referenceRun(t *testing.T, p *Plan, input *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	g := p.Graph
	arena := make([]float32, p.ArenaBytes/4)
	vals := map[*graph.Node]*tensor.Tensor{g.In: input}
	ops := make(map[*graph.Node]*CompiledOp, len(p.Ops))
	for i := range p.Ops {
		ops[p.Ops[i].Node] = &p.Ops[i]
	}
	for _, n := range g.Topo() {
		if n.Kind == graph.OpInput {
			continue
		}
		if n.Kind == graph.OpConst {
			vals[n] = n.Value
			continue
		}
		out, err := referenceOp(ops[n], n, vals)
		if err != nil {
			t.Fatalf("reference run at %s: %v", n, err)
		}
		al := p.Alloc[n.ID]
		buf := arena[al.Offset/4 : al.End()/4]
		copy(buf, out.Data())
		vals[n] = tensor.From(buf, out.Shape()...)
	}
	return vals[g.Out]
}

func referenceOp(op *CompiledOp, n *graph.Node, vals map[*graph.Node]*tensor.Tensor) (*tensor.Tensor, error) {
	ins := make([]*tensor.Tensor, len(n.Inputs))
	for i, in := range n.Inputs {
		ins[i] = vals[in]
	}
	var out *tensor.Tensor
	switch {
	case op.progConv != nil:
		out = op.progConv.Forward(ins[0])
	case op.winConv != nil:
		out = op.winConv.Forward(ins[0])
	case op.progDense != nil && op.Impl == ImplCSR:
		// The program interpreter, not the compiled executor the plan runs.
		prog := op.progDense.Program
		out = referenceDense(ins[0], func(x, y []float32) {
			var s tensor.Scratch
			prog.ExecuteMatrixInto(y, x, 1, &s)
		}, prog.M, op.denseBias)
	case op.progDense != nil:
		out = op.progDense.Forward(ins[0])
	default:
		return graph.EvalNode(n, ins) // applies FusedReLU itself
	}
	if n.Attrs.FusedReLU {
		out = tensor.ReLU(out)
	}
	return out, nil
}

func referenceDense(in *tensor.Tensor, matvec func(x, y []float32), m int, bias *tensor.Tensor) *tensor.Tensor {
	n, k := in.Dim(0), in.Dim(1)
	out := tensor.New(n, m)
	for b := 0; b < n; b++ {
		matvec(in.Data()[b*k:(b+1)*k], out.Data()[b*m:(b+1)*m])
	}
	if bias != nil {
		bd := bias.Data()
		od := out.Data()
		for b := 0; b < n; b++ {
			for i := 0; i < m; i++ {
				od[b*m+i] += bd[i]
			}
		}
	}
	return out
}

func checkBitIdentical(t *testing.T, p *Plan, input *tensor.Tensor) {
	t.Helper()
	want := referenceRun(t, p, input)
	got, err := p.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("shape %v != reference %v", got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if gd[i] != wd[i] {
			t.Fatalf("output[%d] = %v != reference %v (bit-exact required)", i, gd[i], wd[i])
		}
	}
}

// TestExecutorBitIdenticalLeNetAllImpls pins the destination-passing
// executor to the old allocate-and-copy semantics for every forced
// implementation on a graph small enough to compile them all.
func TestExecutorBitIdenticalLeNetAllImpls(t *testing.T) {
	for _, force := range []Impl{ImplAuto, ImplDense, ImplCSR, ImplFactorized, ImplIPE, ImplWinograd} {
		t.Run(force.String(), func(t *testing.T) {
			g := nn.LeNet5(2, 11)
			p, err := Compile(g, Options{Force: force})
			if err != nil {
				t.Fatal(err)
			}
			in := gaussianInput(g.In.OutShape, 12)
			checkBitIdentical(t, p, in)
		})
	}
}

// TestExecutorBitIdenticalResNet18 checks the acceptance criterion on the
// residual test graph under auto selection (a mix of winners).
func TestExecutorBitIdenticalResNet18(t *testing.T) {
	if testing.Short() {
		t.Skip("resnet compile is slow")
	}
	g := nn.ResNet18(1, 32, 10, 21)
	p, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := gaussianInput(g.In.OutShape, 22)
	checkBitIdentical(t, p, in)
}

// TestExecutorBitIdenticalMobileNet checks the acceptance criterion on the
// depthwise-separable test graph with the paper's encoded kernels forced on.
func TestExecutorBitIdenticalMobileNet(t *testing.T) {
	if testing.Short() {
		t.Skip("mobilenet compile is slow")
	}
	g := nn.MobileNetV1(1, 32, 10, 16)
	p, err := Compile(g, Options{Force: ImplIPE})
	if err != nil {
		t.Fatal(err)
	}
	in := gaussianInput(g.In.OutShape, 23)
	checkBitIdentical(t, p, in)
}

// TestExecutorSteadyStateZeroAllocs: after the first warm-up run,
// Executor.Run at parallelism 1 must not touch the heap at all. (Sharded
// execution allocates the closures its parallel regions need; the
// zero-alloc guarantee is documented for the serial setting.)
func TestExecutorSteadyStateZeroAllocs(t *testing.T) {
	// ImplDense covers the FC layers' DenseIntoPar path through
	// graph.EvalNodeIntoPar.
	for _, force := range []Impl{ImplAuto, ImplDense, ImplIPE, ImplCSR, ImplFactorized} {
		t.Run(force.String(), func(t *testing.T) {
			g := nn.LeNet5(1, 13)
			p, err := Compile(g, Options{Force: force})
			if err != nil {
				t.Fatal(err)
			}
			e := p.NewExecutor()
			e.SetParallelism(1)
			in := gaussianInput(g.In.OutShape, 14)
			if _, err := e.Run(in); err != nil { // warm up arena + scratch
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := e.Run(in); err != nil {
					t.Error(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state Run allocates %.1f times per call, want 0", allocs)
			}

			// A 4-item run rebinds the views and grows the arena and
			// scratch once; after that warm-up it is allocation-free too.
			in4 := gaussianInput(tensor.Shape{4, 1, 28, 28}, 15)
			if _, err := e.Run(in4); err != nil {
				t.Fatal(err)
			}
			allocs = testing.AllocsPerRun(10, func() {
				if _, err := e.Run(in4); err != nil {
					t.Error(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state 4-item Run allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// TestExecutorMultiItemRunBitIdentical runs m-item inputs through one
// executor under every forced implementation and several shard counts, and
// requires each item's output to equal its own single-item run bit for bit;
// rebinding between sizes (m = 3, 1, 5, 3) must not disturb the arena.
func TestExecutorMultiItemRunBitIdentical(t *testing.T) {
	for _, force := range []Impl{ImplAuto, ImplDense, ImplIPE, ImplCSR, ImplFactorized, ImplWinograd} {
		t.Run(force.String(), func(t *testing.T) {
			g := nn.LeNet5(1, 16)
			p, err := Compile(g, Options{Force: force})
			if err != nil {
				t.Fatal(err)
			}
			items := gaussianInput(tensor.Shape{5, 1, 28, 28}, 17)
			per := items.NumElements() / 5
			single := make([][]float32, 5)
			for i := range single {
				out, err := p.Run(tensor.From(items.Data()[i*per:(i+1)*per], 1, 1, 28, 28))
				if err != nil {
					t.Fatal(err)
				}
				single[i] = out.Data()
			}
			e := p.NewExecutor()
			for _, shards := range []int{1, 3} {
				e.SetParallelism(shards)
				for _, m := range []int{3, 1, 5, 3} {
					out, err := e.Run(tensor.From(items.Data()[:m*per], m, 1, 28, 28))
					if err != nil {
						t.Fatal(err)
					}
					if out.Dim(0) != m {
						t.Fatalf("m=%d: output shape %v", m, out.Shape())
					}
					perOut := out.NumElements() / m
					for i := 0; i < m; i++ {
						expectBitsEqual(t, fmt.Sprintf("shards=%d m=%d item %d", shards, m, i),
							out.Data()[i*perOut:(i+1)*perOut], single[i])
					}
				}
			}
		})
	}
}

// TestCompileChecksBatchDim checks the invariant multi-item runs rest on:
// a node whose output does not keep the input batch as dimension 0, and a
// graph whose output folds to a constant, are rejected by name. Shape
// inference gives no operator a way to change the batch, so the first case
// edits a shape by hand and calls the check Compile runs.
func TestCompileChecksBatchDim(t *testing.T) {
	g := graph.New("in", 2, 3)
	r := g.ReLU(g.In, "odd-batch")
	g.SetOutput(g.ReLU(r, "out"))
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if err := checkBatchDim(g); err != nil {
		t.Fatalf("well-formed graph rejected: %v", err)
	}
	r.OutShape = tensor.Shape{5, 3}
	if err := checkBatchDim(g); err == nil || !strings.Contains(err.Error(), "odd-batch") {
		t.Fatalf("checkBatchDim = %v, want an error naming odd-batch", err)
	}

	g = graph.New("in", 2, 3)
	g.SetOutput(g.ReLU(g.Const("table", tensor.New(5, 3)), "folded"))
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(g, Options{}); err == nil || !strings.Contains(err.Error(), "constant") {
		t.Fatalf("Compile of a constant-output graph = %v, want a rejection", err)
	}
}

func expectBitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestExecutorPoolReuse checks that Run recycles executors through the
// plan's pool and that a pooled executor still produces correct results
// after its arena has been dirtied by a previous inference.
func TestExecutorPoolReuse(t *testing.T) {
	g := nn.LeNet5(1, 17)
	p, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// sync.Pool drops Puts at random when the race detector is on, so give
	// recycling a few chances instead of asserting on a single round trip.
	e := p.AcquireExecutor()
	recycled := false
	for i := 0; i < 32 && !recycled; i++ {
		p.ReleaseExecutor(e)
		got := p.AcquireExecutor()
		recycled = got == e
		e = got
	}
	if !recycled {
		t.Fatalf("pool did not recycle a released executor in 32 round trips")
	}
	p.ReleaseExecutor(e)

	in1 := gaussianInput(g.In.OutShape, 18)
	in2 := gaussianInput(g.In.OutShape, 19)
	first, err := p.Run(in1) // dirties the pooled arena
	if err != nil {
		t.Fatal(err)
	}
	want := referenceRun(t, p, in2)
	got, err := p.Run(in2) // reuses the dirty arena
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("dirty-arena rerun diverges at %d: %v != %v", i, got.Data()[i], want.Data()[i])
		}
	}
	// Run must return an independent copy, not an arena alias.
	if _, err := p.Run(in1); err != nil {
		t.Fatal(err)
	}
	_ = first
	for i := range want.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("Run result aliased the pooled arena (index %d changed)", i)
		}
	}
}

// TestExecutorRejectsBadInputShape covers the executor's own validation
// (Plan.Run used to do this check; it now lives in Executor.Run).
func TestExecutorRejectsBadInputShape(t *testing.T) {
	g := nn.LeNet5(1, 23)
	p, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := p.NewExecutor()
	if e.Plan() != p {
		t.Fatalf("Executor.Plan() = %p, want %p", e.Plan(), p)
	}
	if _, err := e.Run(tensor.New(1, 1, 8, 8)); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

// TestReleaseExecutorForeignPlan ensures an executor can only go back to
// the pool of the plan that built it.
func TestReleaseExecutorForeignPlan(t *testing.T) {
	g1 := nn.LeNet5(1, 29)
	p1, err := Compile(g1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2 := nn.LeNet5(1, 31)
	p2, err := Compile(g2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := p1.NewExecutor()
	p2.ReleaseExecutor(e) // must be ignored
	p2.ReleaseExecutor(nil)
	if got := p2.PooledExecutors(); got != 0 {
		t.Fatalf("foreign executor entered p2's pool (%d pooled)", got)
	}
}

// TestArenaReleaseCoalesces exercises the insertion-sort release paths of
// the planner's free list directly: merge-with-previous, merge-with-next,
// merge-both, and plain insert must leave the list sorted and coalesced.
func TestArenaReleaseCoalesces(t *testing.T) {
	var a arena
	offs := make([]int64, 6)
	for i := range offs {
		offs[i] = a.alloc(16)
	}
	// Release out of order: 4, 0, 2 are isolated inserts; 1 merges both
	// neighbors; 3 merges previous; 5 merges previous too.
	for _, i := range []int{4, 0, 2, 1, 3, 5} {
		a.release(Allocation{Offset: offs[i], Size: 16})
	}
	if len(a.free) != 1 || a.free[0].Offset != 0 || a.free[0].Size != 96 {
		t.Fatalf("free list not fully coalesced: %+v", a.free)
	}
	// The coalesced run satisfies a large request again.
	if off := a.alloc(96); off != 0 {
		t.Fatalf("alloc after coalesce = %d, want 0", off)
	}
	if a.high != 96 {
		t.Fatalf("high-water mark grew to %d, want 96", a.high)
	}
}

func TestArenaReleaseKeepsSorted(t *testing.T) {
	var a arena
	var allocs []Allocation
	for i := 0; i < 8; i++ {
		allocs = append(allocs, Allocation{Offset: a.alloc(8 + int64(i%3)*8), Size: 8 + int64(i%3)*8})
	}
	// Release every other block (no two adjacent), then check ordering.
	for _, i := range []int{6, 0, 4, 2} {
		a.release(allocs[i])
	}
	for j := 1; j < len(a.free); j++ {
		if a.free[j-1].Offset >= a.free[j].Offset {
			t.Fatalf("free list unsorted at %d: %+v", j, a.free)
		}
		if a.free[j-1].End() == a.free[j].Offset {
			t.Fatalf("free list has uncoalesced neighbors at %d: %+v", j, a.free)
		}
	}
	if len(a.free) != 4 {
		t.Fatalf("expected 4 isolated free blocks, got %+v", a.free)
	}
}

func ExamplePlan_AcquireExecutor() {
	g := nn.LeNet5(1, 3)
	p, err := Compile(g, Options{Force: ImplDense})
	if err != nil {
		panic(err)
	}
	// Compile once, pool executors, run many: the serving loop reuses one
	// warm arena and allocates nothing per inference.
	e := p.AcquireExecutor()
	defer p.ReleaseExecutor(e)
	in := gaussianInput(g.In.OutShape, 5)
	out, err := e.Run(in) // out aliases e's arena until the next e.Run
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Shape())
	// Output: [1 10]
}
