package conformance

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/ipe"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// The differential driver. Each Check*(seed) rebuilds the generated case
// from its seed, runs every implementation family on it — each family a
// list of runs that call the kernels directly — and enforces the
// correctness contract: first run of a family against the float64
// reference (tolerance), every other run of the family against the first
// (bitwise), integer paths against the straight-loop integer reference
// (exact).

// serialPar returns the one-shard parallelism context used for variants
// that require a non-nil *tensor.Par but should run serially.
func serialPar() *tensor.Par { return tensor.NewPar(parallel.Shared(), 1) }

// pars returns the shard counts every sharded variant runs under: serial,
// a shard count that does not divide typical unit counts, and the
// GOMAXPROCS default.
func pars() []*tensor.Par {
	return []*tensor.Par{
		tensor.NewPar(parallel.Shared(), 1),
		tensor.NewPar(parallel.Shared(), 3),
		tensor.NewPar(parallel.Shared(), 0),
	}
}

// familyRun is one concrete execution: a variant of a family, adapted to
// write its result into a flat float32 buffer.
type familyRun struct {
	name    string
	usesPar bool
	f       func(dst []float32, par *tensor.Par)
}

// driveFamily runs a family's variants (sharded ones at every shard count),
// checks the first run against the float64 reference within tolerance, and
// every subsequent run bitwise against the first.
func driveFamily(seed uint64, family string, size int, refOut, refMag []float64, runs []familyRun) error {
	var first []float32
	var firstName string
	for _, v := range runs {
		ps := []*tensor.Par{serialPar()}
		if v.usesPar {
			ps = pars()
		}
		for _, p := range ps {
			name := family + "/" + v.name
			if v.usesPar {
				name = fmt.Sprintf("%s[shards=%d]", name, p.Shards())
			}
			dst := make([]float32, size)
			v.f(dst, p)
			if first == nil {
				if err := checkClose(seed, name, dst, refOut, refMag); err != nil {
					return err
				}
				first, firstName = dst, name
				continue
			}
			if err := checkExact(seed, name, firstName, dst, first); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckConv rebuilds the convolution case for seed and cross-checks every
// convolution family: tensor direct and im2col on the float weights;
// Winograd when the spec allows; the CSR and factorized programs and both
// IPE encoders' float paths on the dequantized weights; and the IPE integer
// path against a bitwise replication over decoded codes.
func CheckConv(seed uint64) error {
	cs := GenConv(seed)
	spec := cs.Spec.Normalize()
	n, h, w := cs.Input.Dim(0), cs.Input.Dim(2), cs.Input.Dim(3)
	oh, ow := spec.OutDims(h, w)
	size := n * spec.OutC * oh * ow
	out := func(dst []float32) *tensor.Tensor { return tensor.From(dst, n, spec.OutC, oh, ow) }
	in, weight, bias := cs.Input, cs.Weight, cs.Bias

	// Float-weight families: tensor kernels and, for 3×3 stride-1 dense
	// specs, Winograd.
	refOut, refMag := RefConv2D(in, weight, bias, spec)
	if err := driveFamily(seed, "tensor-direct", size, refOut, refMag, []familyRun{
		{name: "alloc", f: func(dst []float32, _ *tensor.Par) {
			copy(dst, tensor.Conv2D(in, weight, bias, spec).Data())
		}},
		{name: "into-par", usesPar: true, f: func(dst []float32, par *tensor.Par) {
			tensor.Conv2DIntoPar(out(dst), in, weight, bias, spec, par)
		}},
	}); err != nil {
		return err
	}
	if err := driveFamily(seed, "tensor-im2col", size, refOut, refMag, []familyRun{
		{name: "alloc", f: func(dst []float32, _ *tensor.Par) {
			copy(dst, tensor.Conv2DIm2col(in, weight, bias, spec).Data())
		}},
	}); err != nil {
		return err
	}
	if baseline.SupportsWinograd(spec) == nil {
		l, err := baseline.NewConvWinograd(weight, bias, spec)
		if err != nil {
			return fmt.Errorf("conformance: seed %d: NewConvWinograd: %w", seed, err)
		}
		if err := driveFamily(seed, "winograd", size, refOut, refMag, []familyRun{
			{name: "forward", f: func(dst []float32, _ *tensor.Par) {
				copy(dst, l.Forward(in).Data())
			}},
			{name: "forward-into-par", usesPar: true, f: func(dst []float32, par *tensor.Par) {
				l.ForwardIntoPar(out(dst), in, par)
			}},
		}); err != nil {
			return err
		}
	}

	// Quantized families run on the dequantized weights, so they share an
	// oracle built from them. The CSR and factorized baselines are the
	// quantized weights as empty-dictionary programs on the IPE conv path;
	// every encoded layer runs that one path.
	q := quant.Quantize(weight, cs.Bits, cs.Scheme)
	qOut, qMag := RefConv2D(in, q.Dequantize(), bias, spec)
	driveLayer := func(family string, l *ipe.ConvLayer) error {
		return driveFamily(seed, family, size, qOut, qMag, []familyRun{
			{name: "forward-into-par", usesPar: true, f: func(dst []float32, par *tensor.Par) {
				l.ForwardIntoPar(out(dst), in, false, par)
			}},
		})
	}
	for _, b := range []struct {
		name  string
		build func(*quant.Quantized, *tensor.Tensor, tensor.ConvSpec) (*ipe.ConvLayer, error)
	}{{"csr", ipe.SparseConv}, {"factorized", ipe.FactorizeConv}} {
		l, err := b.build(q, bias, spec)
		if err != nil {
			return fmt.Errorf("conformance: seed %d: %s conv: %w", seed, b.name, err)
		}
		if err := driveLayer(b.name+"-conv", l); err != nil {
			return err
		}
	}

	// Each encoder yields its own programs, and thus its own family.
	for _, enc := range []struct {
		name   string
		encode func(w, bias *tensor.Tensor, spec tensor.ConvSpec, bits int, scheme quant.Scheme, cfg ipe.Config) (*ipe.ConvLayer, ipe.Stats, error)
	}{{"ipe", ipe.EncodeConv}, {"ipe-shared", ipe.EncodeConvShared}} {
		l, _, err := enc.encode(weight, bias, spec, cs.Bits, cs.Scheme, cs.Cfg)
		if err != nil {
			return fmt.Errorf("conformance: seed %d: %s encode: %w", seed, enc.name, err)
		}
		if err := driveLayer(enc.name+"-conv", l); err != nil {
			return err
		}

		xParams := quant.Calibrate([]*tensor.Tensor{in}, 8)
		got := l.ForwardInt8(in, xParams)
		want, err := refConvInt8(l, in, xParams)
		if err != nil {
			return fmt.Errorf("conformance: seed %d: %s int reference: %w", seed, enc.name, err)
		}
		if err := checkExact(seed, enc.name+"-conv/forward-int8", "int replication", got.Data(), want); err != nil {
			return err
		}
	}
	return nil
}

// refConvInt8 replicates ConvLayer.ForwardInt8 over decoded program codes:
// the integer accumulation goes through the straight-loop RefProgramInt and
// the float requantization tail repeats the layer's operations in order, so
// the comparison is bitwise.
func refConvInt8(l *ipe.ConvLayer, in *tensor.Tensor, xParams quant.Params) ([]float32, error) {
	spec := l.Spec.Normalize()
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	ocg := spec.OutC / spec.Groups
	out := make([]float32, n*spec.OutC*oh*ow)
	for g := 0; g < spec.Groups; g++ {
		prog := l.Programs[g]
		codes, err := prog.Decode()
		if err != nil {
			return nil, err
		}
		for b := 0; b < n; b++ {
			col := tensor.Im2colGroup(in, b, g, spec)
			p := col.Dim(1)
			qc := ipe.QuantizeActivations(col.Data(), xParams, 8)
			xCol := make([]int32, prog.K)
			for c := 0; c < p; c++ {
				for i := range xCol {
					xCol[i] = qc[i*p+c]
				}
				acc := RefProgramInt(codes, prog.M, prog.K, xCol)
				for oc := 0; oc < ocg; oc++ {
					v := float32(acc[oc]) * xParams.Scale * prog.RowScale(oc)
					if l.Bias != nil {
						v += l.Bias.Data()[g*ocg+oc]
					}
					out[((b*spec.OutC+g*ocg+oc)*oh)*ow+c] = v
				}
			}
		}
	}
	return out, nil
}

// CheckDense rebuilds the dense case for seed and cross-checks the tensor
// dense/GEMM families on float weights, the IPE dense layer on its
// dequantized weights, and the IPE integer dense path bitwise.
func CheckDense(seed uint64) error {
	cs := GenDense(seed)
	n, m := cs.Input.Dim(0), cs.Weight.Dim(0)
	size := n * m
	in, weight, bias := cs.Input, cs.Weight, cs.Bias

	refOut, refMag := RefDense(in, weight, bias)
	if err := driveFamily(seed, "tensor-dense", size, refOut, refMag, []familyRun{
		{name: "alloc", f: func(dst []float32, _ *tensor.Par) {
			copy(dst, tensor.Dense(in, weight, bias).Data())
		}},
		{name: "into-par", usesPar: true, f: func(dst []float32, par *tensor.Par) {
			tensor.DenseIntoPar(tensor.From(dst, n, m), in, weight, bias, par)
		}},
	}); err != nil {
		return err
	}
	if err := driveFamily(seed, "tensor-gemm", size, refOut, refMag, []familyRun{
		{name: "naive", f: func(dst []float32, _ *tensor.Par) { denseViaGemm(dst, in, weight, bias) }},
	}); err != nil {
		return err
	}

	l, _, err := ipe.EncodeDense(weight, bias, cs.Bits, cs.Scheme, cs.Cfg)
	if err != nil {
		return fmt.Errorf("conformance: seed %d: EncodeDense: %w", seed, err)
	}
	deq := quant.Quantize(weight, cs.Bits, cs.Scheme).Dequantize()
	eOut, eMag := RefDense(in, deq, bias)
	if err := driveFamily(seed, "ipe-dense", size, eOut, eMag, []familyRun{
		{name: "forward-into-par", usesPar: true, f: func(dst []float32, par *tensor.Par) {
			l.ForwardIntoPar(tensor.From(dst, n, m), in, false, par)
		}},
	}); err != nil {
		return err
	}

	// Integer path: quantize each batch row, accumulate via the straight
	// integer loop, requantize with the layer's exact operations, then the
	// layer's separate bias pass.
	xParams := quant.Calibrate([]*tensor.Tensor{cs.Input}, 8)
	got := l.ForwardInt8(cs.Input, xParams)
	codes, err := l.Program.Decode()
	if err != nil {
		return fmt.Errorf("conformance: seed %d: dense Decode: %w", seed, err)
	}
	k := l.Program.K
	want := make([]float32, size)
	for b := 0; b < n; b++ {
		xc := ipe.QuantizeActivations(cs.Input.Data()[b*k:(b+1)*k], xParams, 8)
		acc := RefProgramInt(codes, m, k, xc)
		for r := 0; r < m; r++ {
			want[b*m+r] = float32(acc[r]) * xParams.Scale * l.Program.RowScale(r)
		}
	}
	if l.Bias != nil {
		for b := 0; b < n; b++ {
			for r := 0; r < m; r++ {
				want[b*m+r] += l.Bias.Data()[r]
			}
		}
	}
	return checkExact(seed, "ipe-dense/forward-int8", "int replication", got.Data(), want)
}

// denseViaGemm computes the dense layer as the naive Gemm x·Wᵀ on the
// materialized transpose followed by a bias add.
func denseViaGemm(dst []float32, in, w, b *tensor.Tensor) {
	n, k := in.Dim(0), in.Dim(1)
	m := w.Dim(0)
	tensor.Gemm(in.Data(), tensor.Transpose(w).Data(), dst, n, k, m)
	if b != nil {
		bd := b.Data()
		for r := 0; r < n; r++ {
			for i := 0; i < m; i++ {
				dst[r*m+i] += bd[i]
			}
		}
	}
}

// CheckProgram rebuilds the raw-matrix case for seed, encodes it, and
// cross-checks: the decoded program weights against the quantizer
// (bitwise), the matrix float executors against the reference on those
// weights, the integer executor bitwise against the straight loop,
// the symmetric and asymmetric quantized paths bitwise against their
// replications, and the CSR/factorized baselines built from the same
// quantized matrix.
func CheckProgram(seed uint64) error {
	cs := GenProgram(seed)
	m, k, p := cs.M, cs.K, cs.P
	q := quant.Quantize(cs.Weight, cs.Bits, cs.Scheme)
	prog, _, err := ipe.Encode(q, cs.Cfg)
	if err != nil {
		return fmt.Errorf("conformance: seed %d: Encode: %w", seed, err)
	}
	codes, err := prog.Decode()
	if err != nil {
		return fmt.Errorf("conformance: seed %d: Decode: %w", seed, err)
	}
	wRef, err := RefProgramWeights(prog)
	if err != nil {
		return fmt.Errorf("conformance: seed %d: %w", seed, err)
	}
	deq := q.Dequantize()
	if err := checkExact(seed, "program-weights", "quantizer dequantize", wRef, deq.Data()); err != nil {
		return err
	}

	// Float matrix executors (a single vector is the one-column case): the
	// interpreter, the family's bitwise anchor, and the compiled executor,
	// which replays its arithmetic exactly at any shard count.
	mOut, mMag := RefMatMul(wRef, cs.Cols, m, k, p)
	driveMatrix := func(family string, pr *ipe.Program) error {
		var s tensor.Scratch
		return driveFamily(seed, family, m*p, mOut, mMag, []familyRun{
			{name: "matrix-into", f: func(dst []float32, _ *tensor.Par) {
				pr.ExecuteMatrixInto(dst, cs.Cols, p, &s)
			}},
			{name: "compiled-matrix-into-par", usesPar: true, f: func(dst []float32, par *tensor.Par) {
				pr.Compiled().ExecuteMatrixIntoPar(dst, cs.Cols, p, par)
			}},
		})
	}
	if err := driveMatrix("ipe-matrix", prog); err != nil {
		return err
	}

	// The integer executor is exact.
	intY := make([]int64, m)
	prog.ExecuteInt(cs.XInt, intY)
	if err := checkExactInt(seed, "ipe-int", "integer reference", intY, RefProgramInt(codes, m, k, cs.XInt)); err != nil {
		return err
	}

	// Symmetric quantized path, replicated bitwise.
	xT := tensor.From(cs.X, k)
	sp := quant.Calibrate([]*tensor.Tensor{xT}, 8)
	got := make([]float32, m)
	prog.ExecuteQuantized(cs.X, got, sp, 8)
	xc := ipe.QuantizeActivations(cs.X, sp, 8)
	acc := RefProgramInt(codes, m, k, xc)
	want := make([]float32, m)
	for r := 0; r < m; r++ {
		want[r] = float32(acc[r]) * sp.Scale * prog.RowScale(r)
	}
	if err := checkExact(seed, "ipe-quantized", "int replication", got, want); err != nil {
		return err
	}

	// Asymmetric quantized path: the precomputed zero-point corrections
	// must equal the decoded rows' code sums, and the output must replicate
	// bitwise.
	ap := quant.CalibrateAsym([]*tensor.Tensor{xT}, 8)
	rowSums := prog.RowCodeSums()
	refSums := make([]int64, m)
	for r := 0; r < m; r++ {
		for c := 0; c < k; c++ {
			refSums[r] += int64(codes[r*k+c])
		}
	}
	if err := checkExactInt(seed, "ipe-row-code-sums", "decoded code sums", rowSums, refSums); err != nil {
		return err
	}
	prog.ExecuteQuantizedAsym(cs.X, got, ap, 8, rowSums)
	ac := quant.QuantizeAsym(cs.X, ap, 8)
	acc = RefProgramInt(codes, m, k, ac)
	z := int64(ap.ZeroPoint)
	for r := 0; r < m; r++ {
		want[r] = float32(acc[r]-z*refSums[r]) * ap.Scale * prog.RowScale(r)
	}
	if err := checkExact(seed, "ipe-quantized-asym", "int replication", got, want); err != nil {
		return err
	}

	// Baselines over the same quantized matrix, as empty-dictionary
	// programs. Their dense reconstructions must equal the quantizer's
	// dequantization bitwise; their products are checked against the
	// reference on it.
	for _, b := range []struct {
		name  string
		build func(*quant.Quantized) *ipe.Program
	}{{"csr", ipe.Sparse}, {"factorized", ipe.Factorize}} {
		bp := b.build(q)
		bw, err := RefProgramWeights(bp)
		if err != nil {
			return fmt.Errorf("conformance: seed %d: %s: %w", seed, b.name, err)
		}
		if err := checkExact(seed, b.name+"-dense-reconstruction", "quantizer dequantize", bw, deq.Data()); err != nil {
			return err
		}
		if err := driveMatrix(b.name+"-matmat", bp); err != nil {
			return err
		}
	}
	return nil
}

// CheckGraph rebuilds the model-graph case for seed and cross-checks the
// whole-graph execution paths: the graph.Eval walker (close to the
// reference), then for every forceable runtime implementation plus
// auto-selection, a freshly compiled plan's Executor at several
// parallelism settings (bitwise family, close to an oracle evaluated on
// the plan's effective weights), Plan.Run, one three-item Executor.Run at
// one and three shards, and chunked RunBatch at one and two workers (each
// item bitwise against its single run).
func CheckGraph(seed uint64) error {
	gc := GenGraph(seed)
	ref, err := RefGraph(gc.Graph, gc.Input, nil)
	if err != nil {
		return fmt.Errorf("conformance: seed %d: graph reference: %w", seed, err)
	}

	out, err := graph.Eval(gc.Graph, gc.Input)
	if err != nil {
		return fmt.Errorf("conformance: seed %d: graph/eval: %w", seed, err)
	}
	if err := checkGraphClose(seed, "graph/eval", out.Data(), ref); err != nil {
		return err
	}

	// A second, independently generated input for the middle RunBatch
	// chunk, derived deterministically from the seed.
	r := tensor.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	extra := tensor.New(gc.Graph.In.OutShape...)
	tensor.FillGaussian(extra, r, 1)

	impls := append([]runtime.Impl{runtime.ImplAuto}, runtime.ForceableImpls()...)
	for _, impl := range impls {
		tag := fmt.Sprintf("runtime[force=%v]", impl)
		plan, err := runtime.Compile(gc.Graph.Clone(), runtime.Options{Force: impl})
		if err != nil {
			return fmt.Errorf("conformance: seed %d: %s: Compile: %w", seed, tag, err)
		}
		eff, err := plan.EffectiveWeights()
		if err != nil {
			return fmt.Errorf("conformance: seed %d: %s: %w", seed, tag, err)
		}
		oracle, err := RefGraph(plan.Graph, gc.Input, eff)
		if err != nil {
			return fmt.Errorf("conformance: seed %d: %s: oracle: %w", seed, tag, err)
		}

		// The first shard count establishes the family's bitwise base
		// against the oracle on the plan's effective weights; every other
		// execution path must reproduce that base bitwise.
		var base []float32
		var baseName string
		e := plan.AcquireExecutor()
		for _, shards := range []int{1, 3, 0} {
			e.SetParallelism(shards)
			out, err := e.Run(gc.Input)
			if err != nil {
				plan.ReleaseExecutor(e)
				return fmt.Errorf("conformance: seed %d: %s: Run: %w", seed, tag, err)
			}
			// The executor's output aliases its arena; copy before the
			// next run overwrites it.
			data := append([]float32(nil), out.Data()...)
			name := fmt.Sprintf("%s/executor[shards=%d]", tag, shards)
			if base == nil {
				if err := checkGraphClose(seed, name, data, oracle); err != nil {
					plan.ReleaseExecutor(e)
					return err
				}
				base, baseName = data, name
				continue
			}
			if err := checkExact(seed, name, baseName, data, base); err != nil {
				plan.ReleaseExecutor(e)
				return err
			}
		}
		e.SetParallelism(1)
		out2, err := e.Run(extra)
		if err != nil {
			plan.ReleaseExecutor(e)
			return fmt.Errorf("conformance: seed %d: %s: Run(extra): %w", seed, tag, err)
		}
		extraOut := append([]float32(nil), out2.Data()...)

		// Three items (case input, extra input, case input again) in one
		// Executor.Run: every kernel runs the items as the columns of one
		// pass, and each item must reproduce its single run. Forcing three
		// shards makes column blocks straddle item boundaries even on a
		// one-CPU machine.
		inShape := plan.Graph.In.OutShape
		batched := tensor.New(append([]int{3 * inShape[0]}, inShape[1:]...)...)
		per := gc.Input.NumElements()
		copy(batched.Data()[0:per], gc.Input.Data())
		copy(batched.Data()[per:2*per], extra.Data())
		copy(batched.Data()[2*per:3*per], gc.Input.Data())
		for _, shards := range []int{1, 3} {
			e.SetParallelism(shards)
			mout, err := e.Run(batched)
			if err != nil {
				plan.ReleaseExecutor(e)
				return fmt.Errorf("conformance: seed %d: %s: Run(3 items): %w", seed, tag, err)
			}
			name := fmt.Sprintf("%s/executor-3items[shards=%d]", tag, shards)
			if err := checkItems(seed, name, baseName, mout.Data(), base, extraOut); err != nil {
				plan.ReleaseExecutor(e)
				return err
			}
		}
		plan.ReleaseExecutor(e)

		out, err := plan.Run(gc.Input)
		if err != nil {
			return fmt.Errorf("conformance: seed %d: %s: Plan.Run: %w", seed, tag, err)
		}
		if err := checkExact(seed, tag+"/plan-run", baseName, out.Data(), base); err != nil {
			return err
		}

		// RunBatch of the same three chunks must reproduce the single runs
		// chunk for chunk at any worker count.
		for _, workers := range []int{1, 2} {
			bout, err := plan.RunBatch(batched, workers)
			if err != nil {
				return fmt.Errorf("conformance: seed %d: %s: RunBatch(workers=%d): %w", seed, tag, workers, err)
			}
			name := fmt.Sprintf("%s/run-batch[workers=%d]", tag, workers)
			if err := checkItems(seed, name, baseName, bout.Data(), base, extraOut); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkItems checks a three-item output — case input, extra input, case
// input — item by item against the single runs, bitwise.
func checkItems(seed uint64, name, baseName string, got, base, extraOut []float32) error {
	per := len(got) / 3
	if err := checkExact(seed, name+"/chunk0", baseName, got[0:per], base); err != nil {
		return err
	}
	if err := checkExact(seed, name+"/chunk1", "single run on extra input", got[per:2*per], extraOut); err != nil {
		return err
	}
	return checkExact(seed, name+"/chunk2", baseName, got[2*per:3*per], base)
}

// CheckSharedDict rebuilds the model-graph case for seed and enforces the
// shared-dictionary bit-identity contract: for every forceable runtime
// implementation plus auto-selection, two plans compiled through one shared
// ipe.DictStore — the multi-model serving configuration — must produce
// outputs bit-identical to an unshared compile of the same graph, on Run
// and on chunked RunBatch. Interning may alias dictionary tables and reuse
// compiled emit passes across the plans, but never change a single output
// bit. For forced IPE the store must also actually intern (the second
// identical compile hits the program cache), so the check cannot pass
// vacuously with the store bypassed.
func CheckSharedDict(seed uint64) error {
	gc := GenGraph(seed)

	// One store across all implementations and both shared plans, like one
	// serving process hosting every model: a program interned under one
	// forced implementation must never leak wrong bits into another.
	store := ipe.NewDictStore()
	impls := append([]runtime.Impl{runtime.ImplAuto}, runtime.ForceableImpls()...)
	for _, impl := range impls {
		tag := fmt.Sprintf("shared-dict[force=%v]", impl)
		base, err := runtime.Compile(gc.Graph.Clone(), runtime.Options{Force: impl})
		if err != nil {
			return fmt.Errorf("conformance: seed %d: %s: Compile(unshared): %w", seed, tag, err)
		}
		want, err := base.Run(gc.Input)
		if err != nil {
			return fmt.Errorf("conformance: seed %d: %s: Run(unshared): %w", seed, tag, err)
		}

		shared := runtime.Options{Force: impl, DictStore: store}
		var prev *runtime.Plan
		for i := 0; i < 2; i++ {
			plan, err := runtime.Compile(gc.Graph.Clone(), shared)
			if err != nil {
				return fmt.Errorf("conformance: seed %d: %s: Compile(shared %d): %w", seed, tag, i+1, err)
			}
			name := fmt.Sprintf("%s/plan%d", tag, i+1)
			out, err := plan.Run(gc.Input)
			if err != nil {
				return fmt.Errorf("conformance: seed %d: %s: Run: %w", seed, name, err)
			}
			if err := checkExact(seed, name, "unshared plan", out.Data(), want.Data()); err != nil {
				return err
			}

			// Two-chunk RunBatch through the shared plan must reproduce the
			// single run chunk for chunk (the serving batcher's path).
			inShape := plan.Graph.In.OutShape
			batched := tensor.New(append([]int{2 * inShape[0]}, inShape[1:]...)...)
			per := gc.Input.NumElements()
			copy(batched.Data()[0:per], gc.Input.Data())
			copy(batched.Data()[per:2*per], gc.Input.Data())
			bout, err := plan.RunBatch(batched, 2)
			if err != nil {
				return fmt.Errorf("conformance: seed %d: %s: RunBatch: %w", seed, name, err)
			}
			perOut := bout.NumElements() / 2
			for c := 0; c < 2; c++ {
				if err := checkExact(seed, fmt.Sprintf("%s/run-batch/chunk%d", name, c),
					"unshared plan", bout.Data()[c*perOut:(c+1)*perOut], want.Data()); err != nil {
					return err
				}
			}

			// The second identical compile must intern to the first plan's
			// canonical programs, not re-own copies.
			if prev != nil && impl == runtime.ImplIPE {
				p1, p2 := prev.IPEPrograms(), plan.IPEPrograms()
				if len(p1) != len(p2) {
					return fmt.Errorf("conformance: seed %d: %s: program count %d != %d",
						seed, name, len(p2), len(p1))
				}
				for j := range p1 {
					if p1[j] != p2[j] {
						return fmt.Errorf("conformance: seed %d: %s: program %d not interned to the canonical instance",
							seed, name, j)
					}
				}
			}
			prev = plan
		}
	}
	if store.Stats().Lookups > 0 && store.Stats().ProgramHits == 0 {
		return fmt.Errorf("conformance: seed %d: shared-dict store interned %d programs but deduplicated none across identical compiles",
			seed, store.Stats().Lookups)
	}
	return nil
}
