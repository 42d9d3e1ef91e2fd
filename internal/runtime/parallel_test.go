package runtime

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// TestExecutorParallelBitIdentical pins the central sharding contract at the
// executor level: any parallelism setting must reproduce the serial
// (reference) output bit for bit, for every forced implementation.
func TestExecutorParallelBitIdentical(t *testing.T) {
	for _, force := range []Impl{ImplAuto, ImplDense, ImplCSR, ImplFactorized, ImplIPE, ImplWinograd} {
		t.Run(force.String(), func(t *testing.T) {
			g := nn.LeNet5(2, 33)
			p, err := Compile(g, Options{Force: force})
			if err != nil {
				t.Fatal(err)
			}
			in := gaussianInput(g.In.OutShape, 34)
			want := referenceRun(t, p, in)
			for _, shards := range []int{2, 4, 7} {
				e := p.NewExecutor()
				e.SetParallelism(shards)
				got, err := e.Run(in)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Data() {
					if got.Data()[i] != want.Data()[i] {
						t.Fatalf("shards=%d: output[%d] = %v != serial %v (bit-exact required)",
							shards, i, got.Data()[i], want.Data()[i])
					}
				}
			}
		})
	}
}

// TestExecutorParallelBitIdenticalResNet18 checks the acceptance criterion on
// the residual graph under auto selection with sharding on.
func TestExecutorParallelBitIdenticalResNet18(t *testing.T) {
	if testing.Short() {
		t.Skip("resnet compile is slow")
	}
	g := nn.ResNet18(1, 32, 10, 35)
	p, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := gaussianInput(g.In.OutShape, 36)
	want := referenceRun(t, p, in)
	e := p.NewExecutor()
	e.SetParallelism(4)
	got, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("output[%d] = %v != serial %v (bit-exact required)",
				i, got.Data()[i], want.Data()[i])
		}
	}
}

// TestExecutorDropsInputRefs pins the pooled-executor retention fix: after a
// run, neither the slot table nor the per-step input caches may keep the
// caller's input (or any arena alias) alive, so a pooled executor never pins
// request tensors between inferences.
func TestExecutorDropsInputRefs(t *testing.T) {
	g := nn.LeNet5(1, 37)
	p, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := p.NewExecutor()
	in := gaussianInput(g.In.OutShape, 38)
	if _, err := e.Run(in); err != nil {
		t.Fatal(err)
	}
	if e.slots[p.Graph.In.ID] != nil {
		t.Fatal("input slot still references the caller's tensor after Run")
	}
	for i := range e.steps {
		for j, v := range e.steps[i].ins {
			if v != nil {
				t.Fatalf("step %d input %d retained after Run", i, j)
			}
		}
	}
	// The released executor must also come back clean through the pool.
	p.ReleaseExecutor(e)
	e2 := p.AcquireExecutor()
	defer p.ReleaseExecutor(e2)
	if e2 == e && e2.slots[p.Graph.In.ID] != nil {
		t.Fatal("pooled executor retained the previous request's input")
	}
}

// TestRunBatchRejectsBadInputs covers the RunBatch validation fixes: a
// zero-value tensor (rank 0) and a rank mismatch used to panic via Dim(0)
// or divide by zero; a same-element-count input with transposed non-batch
// dims used to be accepted silently.
func TestRunBatchRejectsBadInputs(t *testing.T) {
	g := nn.LeNet5(2, 41)
	p, err := Compile(g, Options{Force: ImplDense})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunBatch(&tensor.Tensor{}, 2); err == nil {
		t.Fatal("zero-value tensor must be rejected, not panic")
	}
	if _, err := p.RunBatch(tensor.New(2, 28, 28), 2); err == nil {
		t.Fatal("rank mismatch must be rejected")
	}
	// Same element count as [2 1 28 28] but wrong layout.
	if _, err := p.RunBatch(tensor.New(2, 28, 1, 28), 2); err == nil {
		t.Fatal("non-batch dim mismatch must be rejected even with matching element count")
	}
	if _, err := p.RunBatch(tensor.New(3, 1, 28, 28), 2); err == nil {
		t.Fatal("non-multiple batch must still be rejected")
	}
}

// TestCompileDefaultSchemePerChannel pins the one quantization scheme a plan
// compiles with: with Options left at their defaults, every IPE program
// decodes to the per-channel codes of its weights, and at least one layer's
// per-tensor codes differ, so the check can tell the two schemes apart.
func TestCompileDefaultSchemePerChannel(t *testing.T) {
	g := nn.LeNet5(1, 43)
	p, err := Compile(g, Options{Force: ImplIPE})
	if err != nil {
		t.Fatal(err)
	}
	distinct := false
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.progConv == nil && op.progDense == nil {
			continue
		}
		w := op.Node.Param("weight")
		perCh := quant.Quantize(w, p.Opts.Bits, quant.PerChannel)
		perT := quant.Quantize(w, p.Opts.Bits, quant.PerTensor)
		if op.progDense != nil {
			if err := op.progDense.Program.VerifyAgainst(perCh); err != nil {
				t.Fatalf("%s: %v", op.Node.Name, err)
			}
			distinct = distinct || op.progDense.Program.VerifyAgainst(perT) != nil
			continue
		}
		ocg := op.progConv.Spec.OutC / op.progConv.Spec.Groups
		for gi, prog := range op.progConv.Programs {
			if err := prog.VerifyAgainst(perCh.Rows(gi*ocg, (gi+1)*ocg)); err != nil {
				t.Fatalf("%s group %d: %v", op.Node.Name, gi, err)
			}
			distinct = distinct || prog.VerifyAgainst(perT.Rows(gi*ocg, (gi+1)*ocg)) != nil
		}
	}
	if !distinct {
		t.Fatal("no layer's per-tensor codes differ from its per-channel ones; the check cannot tell the schemes apart")
	}
}

// TestRunBatchWorkersBitIdentical exercises both parallelism levels at once
// (chunk workers each sharding intra-op over the shared pool) and requires
// the result to match the single-worker run bit for bit. Run under -race
// this doubles as the serving-path race exerciser.
func TestRunBatchWorkersBitIdentical(t *testing.T) {
	g := nn.LeNet5(2, 47)
	p, err := Compile(g, Options{Force: ImplIPE, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	big := tensor.New(12, 1, 28, 28)
	tensor.FillGaussian(big, tensor.NewRNG(48), 1)
	want, err := p.RunBatch(big, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 6} {
		got, err := p.RunBatch(big, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data() {
			if got.Data()[i] != want.Data()[i] {
				t.Fatalf("workers=%d: output[%d] = %v != single-worker %v",
					workers, i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

// TestConcurrentExecutorsShareThePool runs several executors at high
// parallelism simultaneously; the bounded shared pool must keep them
// deadlock-free and bit-identical. This is the intra-op race exerciser for
// `go test -race`.
func TestConcurrentExecutorsShareThePool(t *testing.T) {
	g := nn.LeNet5(1, 49)
	p, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := gaussianInput(g.In.OutShape, 50)
	want := referenceRun(t, p, in)
	const goroutines = 6
	errc := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		go func() {
			e := p.AcquireExecutor()
			defer p.ReleaseExecutor(e)
			e.SetParallelism(8)
			for r := 0; r < 3; r++ {
				got, err := e.Run(in)
				if err != nil {
					errc <- err
					return
				}
				for i := range want.Data() {
					if got.Data()[i] != want.Data()[i] {
						errc <- fmt.Errorf("concurrent executor diverged from the serial reference at index %d", i)
						return
					}
				}
			}
			errc <- nil
		}()
	}
	for w := 0; w < goroutines; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunBatchConcurrentSizesSharePool runs RunBatch calls of 1, 3 and 8
// items concurrently on one plan, so pooled executors are handed between
// calls of different sizes and rebind (and grow) their arenas between
// runs. Every result must equal the items' single runs bit for bit. Under
// -race this is the data-race gate for rebinding on hand-off.
func TestRunBatchConcurrentSizesSharePool(t *testing.T) {
	g := nn.LeNet5(1, 51)
	p, err := Compile(g, Options{Force: ImplIPE})
	if err != nil {
		t.Fatal(err)
	}
	p.SetPoolCap(2) // fewer executors than callers: every one changes hands
	items := gaussianInput(tensor.Shape{8, 1, 28, 28}, 52)
	per := items.NumElements() / 8
	single := make([]*tensor.Tensor, 8)
	for i := range single {
		if single[i], err = p.Run(tensor.From(items.Data()[i*per:(i+1)*per], 1, 1, 28, 28)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 6)
	for c := 0; c < 6; c++ {
		m := []int{1, 3, 8}[c%3]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				out, err := p.RunBatch(tensor.From(items.Data()[:m*per], m, 1, 28, 28), 2)
				if err != nil {
					errc <- err
					return
				}
				perOut := out.NumElements() / m
				for i := 0; i < m; i++ {
					got, want := out.Data()[i*perOut:(i+1)*perOut], single[i].Data()
					for j := range want {
						if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
							errc <- fmt.Errorf("%d items: item %d [%d] = %v, want %v", m, i, j, got[j], want[j])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
