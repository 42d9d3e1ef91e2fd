package experiments

import (
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/autotune"
	"repro/internal/graph"
	"repro/internal/ipe"
	"repro/internal/quant"
	"repro/internal/report"
	"repro/internal/runtime"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

// convImplResults simulates all four implementations of one conv layer and
// returns their modeled results keyed by name.
func convImplResults(spec tensor.ConvSpec, w *tensor.Tensor, n, h, wd int, cfg Config, sparsity float64) (map[string]accel.Result, error) {
	out := map[string]accel.Result{}
	wc := w.Clone()
	if sparsity > 0 {
		quant.PruneMagnitude(wc, sparsity)
	}
	// Dense uses the heuristic-scheduled float kernel Compile ranks (the
	// cuDNN-like baseline role).
	out["dense"] = schedule.HeuristicDense(schedule.Workload{Spec: spec, N: n, H: h, W: wd}, cfg.Accel)

	counts := ipe.CountCodes(quant.Quantize(wc, cfg.Bits, quant.PerTensor))
	out["csr"] = cfg.Accel.Simulate(accel.SparseConvProfile(spec, n, h, wd, counts.Nonzeros))
	out["ucnn"] = cfg.Accel.Simulate(accel.FactorizedConvProfile(spec, n, h, wd, counts.Factorized()))

	il, _, err := ipe.EncodeConv(wc, nil, spec, cfg.Bits, quant.PerTensor, cfg.IPE)
	if err != nil {
		return nil, err
	}
	out["ipe"] = cfg.Accel.Simulate(accel.IPEConvProfile(il, n, h, wd))
	return out, nil
}

// Fig4PerLayer prints the per-layer speedup figure: modeled speedup over
// the dense baseline for CSR, UCNN and IPE on each unique ResNet-18
// convolution (one bar group per layer in the paper).
func Fig4PerLayer(cfg Config) error {
	cfg = cfg.withDefaults()
	convs, err := resnetUniqueConvs(cfg)
	if err != nil {
		return err
	}
	fig := report.NewFigure(
		fmt.Sprintf("Fig 4: per-layer speedup over dense, ResNet-18 unique convs, %d-bit", cfg.Bits),
		"layer")
	series := map[string]*report.Series{
		"csr":  {Name: "csr"},
		"ucnn": {Name: "ucnn"},
		"ipe":  {Name: "ipe"},
	}
	for i, uc := range convs {
		res, err := convImplResults(uc.Info.Spec, uc.Info.Weight,
			uc.Info.Batch, uc.Info.InH, uc.Info.InW, cfg, 0)
		if err != nil {
			return err
		}
		dense := float64(res["dense"].Cycles)
		for _, name := range []string{"csr", "ucnn", "ipe"} {
			s := series[name]
			s.X = append(s.X, float64(i+1))
			s.Y = append(s.Y, dense/float64(res[name].Cycles))
		}
	}
	for _, name := range []string{"csr", "ucnn", "ipe"} {
		fig.Add(*series[name])
	}
	emitFig(cfg, fig)
	fmt.Fprintf(cfg.Out, "  (x = unique conv index c1..c%d; y = speedup over dense)\n", len(convs))
	return nil
}

// Fig5EndToEnd prints the end-to-end figure: modeled whole-network latency
// per model under dense, auto-tuned dense, CSR, UCNN, IPE and the automatic
// per-operator selection.
func Fig5EndToEnd(cfg Config) error {
	cfg = cfg.withDefaults()
	t := report.NewTable(
		fmt.Sprintf("Fig 5: end-to-end modeled latency (us), batch 1, input %dx%d, %d-bit", cfg.HW, cfg.HW, cfg.Bits),
		"model", "dense", "dense-tuned", "winograd", "csr", "ucnn", "ipe", "auto", "auto impls")
	type variant struct {
		name string
		opts runtime.Options
	}
	budget := 64
	models := zooModels(cfg)
	if cfg.Fast {
		budget = 24
		models = models[:1] // LeNet-5 exercises every variant cheaply
	}
	for _, m := range models {
		variants := []variant{
			{"dense", runtime.Options{Force: runtime.ImplDense, Bits: cfg.Bits, HW: cfg.Accel, IPE: cfg.IPE}},
			{"winograd", runtime.Options{Force: runtime.ImplWinograd, Bits: cfg.Bits, HW: cfg.Accel, IPE: cfg.IPE}},
			{"csr", runtime.Options{Force: runtime.ImplCSR, Bits: cfg.Bits, HW: cfg.Accel, IPE: cfg.IPE}},
			{"ucnn", runtime.Options{Force: runtime.ImplFactorized, Bits: cfg.Bits, HW: cfg.Accel, IPE: cfg.IPE}},
			{"ipe", runtime.Options{Force: runtime.ImplIPE, Bits: cfg.Bits, HW: cfg.Accel, IPE: cfg.IPE}},
			{"auto", runtime.Options{Bits: cfg.Bits, HW: cfg.Accel, IPE: cfg.IPE}},
		}
		row := []string{m.Name}
		var autoImpls string
		for _, v := range variants {
			g := m.Build(1, cfg.Seed)
			plan, err := runtime.Compile(g, v.opts)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", m.Name, v.name, err)
			}
			row = append(row, report.Num(plan.Total.Microseconds(cfg.Accel)))
			if v.name == "dense" {
				row = append(row, report.Num(tunedDenseTotal(plan, cfg, budget).Microseconds(cfg.Accel)))
			}
			if v.name == "auto" {
				counts := plan.ImplCounts()
				autoImpls = fmt.Sprintf("d:%d c:%d u:%d i:%d",
					counts[runtime.ImplDense], counts[runtime.ImplCSR],
					counts[runtime.ImplFactorized], counts[runtime.ImplIPE])
			}
		}
		row = append(row, autoImpls)
		t.AddRow(row...)
	}
	emit(cfg, t)
	return nil
}

// tunedDenseTotal re-models a dense-forced plan with every conv on an
// auto-tuned schedule in place of the heuristic one, accumulated in op
// order like Plan.Total.
func tunedDenseTotal(plan *runtime.Plan, cfg Config, budget int) accel.Result {
	var total accel.Result
	for _, op := range plan.Ops {
		sim := op.Sim
		if n := op.Node; n.Kind == graph.OpConv {
			in := n.Inputs[0].OutShape
			sim = tunedDenseConv(schedule.Workload{Spec: n.Attrs.Conv, N: in[0], H: in[2], W: in[3]}, cfg, budget)
		}
		total.Accumulate(sim)
	}
	return total
}

// tunedDenseConv models a dense conv on the genetic tuner's best schedule,
// or on the roofline profile when the search finds no legal point.
func tunedDenseConv(wl schedule.Workload, cfg Config, budget int) accel.Result {
	sp := schedule.NewSpace(wl, cfg.Accel)
	if r := (autotune.Genetic{}).Tune(sp, budget, cfg.Seed); r.BestIdx != nil {
		if res, err := sp.At(r.BestIdx).Simulate(wl, cfg.Accel); err == nil {
			return res
		}
	}
	return cfg.Accel.Simulate(accel.DenseConvProfile(wl.Spec, wl.N, wl.H, wl.W))
}

// Fig6aBits prints the bit-width sensitivity: IPE and UCNN speedup over
// dense on the mid-network layer as quantization goes from 1 to 8 bits.
// The decay toward 8 bits (and the crossover with dense) is the headline
// sensitivity of the paper.
func Fig6aBits(cfg Config) error {
	cfg = cfg.withDefaults()
	spec, w, h, wd := midLayer(cfg)
	fig := report.NewFigure("Fig 6a: speedup over dense vs quantization bits (mid layer)", "bits")
	ipeS := report.Series{Name: "ipe"}
	ucnnS := report.Series{Name: "ucnn"}
	bitsList := []int{1, 2, 3, 4, 5, 6, 8}
	if cfg.Fast {
		bitsList = []int{2, 4, 8}
	}
	for _, bits := range bitsList {
		c := cfg
		c.Bits = bits
		res, err := convImplResults(spec, w, 1, h, wd, c, 0)
		if err != nil {
			return err
		}
		dense := float64(res["dense"].Cycles)
		ipeS.X = append(ipeS.X, float64(bits))
		ipeS.Y = append(ipeS.Y, dense/float64(res["ipe"].Cycles))
		ucnnS.X = append(ucnnS.X, float64(bits))
		ucnnS.Y = append(ucnnS.Y, dense/float64(res["ucnn"].Cycles))
	}
	fig.Add(ipeS)
	fig.Add(ucnnS)
	emitFig(cfg, fig)
	return nil
}

// Fig6bDict prints the dictionary-budget sensitivity: IPE speedup, live
// dictionary size and stream compression as MaxDict sweeps from tiny to
// effectively unbounded — the "hardware-friendly constraints are cheap"
// evidence.
func Fig6bDict(cfg Config) error {
	cfg = cfg.withDefaults()
	_, w, _, _ := midLayer(cfg)
	t := report.NewTable(
		fmt.Sprintf("Fig 6b: dictionary budget sweep (mid layer, %d-bit)", cfg.Bits),
		"maxDict", "liveDict", "stream-compr", "ops/pixel", "speedup-vs-dense")
	dicts := []int{64, 256, 1024, 4096, 16384, 65536}
	if cfg.Fast {
		dicts = []int{64, 1024, 16384}
	}
	q := quant.Quantize(w, cfg.Bits, quant.PerTensor)
	m := q.Shape[0]
	k := q.NumElements() / m
	dense := ipe.DenseCost(m, k)
	for _, d := range dicts {
		c := cfg.IPE
		c.MaxDict = d
		prog, stats, err := ipe.Encode(q, c)
		if err != nil {
			return err
		}
		cost := prog.Cost()
		t.AddRow(fmt.Sprint(d),
			fmt.Sprint(prog.DictSize()),
			fmt.Sprintf("%.2fx", stats.CompressionRatio()),
			report.Count(cost.Total()),
			report.Speedup(cost.Speedup(dense)))
	}
	emit(cfg, t)
	return nil
}

// Fig6cSparsity prints the pruning-sparsity sensitivity: IPE vs CSR vs
// UCNN speedup over dense as magnitude pruning sweeps 0→95%. CSR overtakes
// dense only at high sparsity; IPE wins earlier because it exploits value
// repetition, not only zeros.
func Fig6cSparsity(cfg Config) error {
	cfg = cfg.withDefaults()
	spec, w, h, wd := midLayer(cfg)
	fig := report.NewFigure(
		fmt.Sprintf("Fig 6c: speedup over dense vs pruning sparsity (mid layer, %d-bit)", cfg.Bits),
		"sparsity%")
	series := map[string]*report.Series{
		"csr": {Name: "csr"}, "ucnn": {Name: "ucnn"}, "ipe": {Name: "ipe"},
	}
	sparsities := []float64{0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95}
	if cfg.Fast {
		sparsities = []float64{0, 0.5, 0.9}
	}
	for _, sp := range sparsities {
		res, err := convImplResults(spec, w, 1, h, wd, cfg, sp)
		if err != nil {
			return err
		}
		dense := float64(res["dense"].Cycles)
		for _, name := range []string{"csr", "ucnn", "ipe"} {
			s := series[name]
			s.X = append(s.X, sp*100)
			s.Y = append(s.Y, dense/float64(res[name].Cycles))
		}
	}
	for _, name := range []string{"csr", "ucnn", "ipe"} {
		fig.Add(*series[name])
	}
	emitFig(cfg, fig)
	return nil
}

// Fig7Tuning prints the auto-tuner convergence figure: best-found cost
// relative to the exhaustive optimum versus trial count, for random search,
// the genetic algorithm and simulated annealing, averaged over three conv
// shapes and several seeds.
func Fig7Tuning(cfg Config) error {
	cfg = cfg.withDefaults()
	shapes := []schedule.Workload{
		{Spec: tensor.ConvSpec{InC: 64, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, N: 1, H: 32, W: 32},
		{Spec: tensor.ConvSpec{InC: 128, OutC: 128, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, N: 1, H: 32, W: 32},
		{Spec: tensor.ConvSpec{InC: 3, OutC: 64, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, N: 1, H: 64, W: 64},
	}
	budget := 200
	seeds := []uint64{1, 2, 3}
	if cfg.Fast {
		shapes = shapes[:1]
		budget = 60
		seeds = seeds[:1]
	}
	checkpoints := []int{10, 25, 50, 100, 200}
	fig := report.NewFigure("Fig 7: tuner convergence (best/optimal vs trials; 1.0 = optimal)", "trials")
	// Ground-truth optimum per shape, computed once.
	spaces := make([]*schedule.Space, len(shapes))
	optima := make([]float64, len(shapes))
	for i, wl := range shapes {
		spaces[i] = schedule.NewSpace(wl, cfg.Accel)
		optima[i] = autotune.Exhaustive{}.Tune(spaces[i], 0, 0).BestCost
	}
	tuners := []autotune.Tuner{autotune.Random{}, autotune.Genetic{}, autotune.Annealing{}, autotune.Surrogate{}}
	for _, tn := range tuners {
		s := report.Series{Name: tn.Name()}
		// One full-budget run per (shape, seed); checkpoints read the
		// best-so-far trace.
		var traces [][]autotune.Trial
		var opts []float64
		for i := range shapes {
			for _, seed := range seeds {
				r := tn.Tune(spaces[i], budget, seed)
				traces = append(traces, r.Trials)
				opts = append(opts, optima[i])
			}
		}
		for _, cp := range checkpoints {
			if cp > budget {
				continue
			}
			var ratioSum float64
			var count int
			for i, tr := range traces {
				if len(tr) < cp {
					continue
				}
				best := tr[cp-1].Best
				if math.IsInf(best, 1) {
					continue
				}
				ratioSum += best / opts[i]
				count++
			}
			if count == 0 {
				continue
			}
			s.X = append(s.X, float64(cp))
			s.Y = append(s.Y, ratioSum/float64(count))
		}
		fig.Add(s)
	}
	emitFig(cfg, fig)
	return nil
}

// Fig8Ablation prints the hardware-friendliness ablation: how the tile
// constraint, the depth bound and the merge policy change dictionary size,
// compression and op count on the mid-network layer (the greedy-policy row
// runs on a reduced layer: exact BPE is quadratic).
func Fig8Ablation(cfg Config) error {
	cfg = cfg.withDefaults()
	_, w, _, _ := midLayer(cfg)
	q := quant.Quantize(w, cfg.Bits, quant.PerTensor)
	m := q.Shape[0]
	k := q.NumElements() / m
	dense := ipe.DenseCost(m, k)
	t := report.NewTable(
		fmt.Sprintf("Fig 8: encoder ablation (mid layer, %d-bit)", cfg.Bits),
		"config", "dict", "depth", "stream-compr", "ops/pixel", "speedup-vs-dense")
	base := cfg.IPE
	// The depth/tile rows run with an unbounded dictionary so those
	// constraints actually bind: under the default budget the dictionary
	// fills first and masks them (exactly why Fig 6b sweeps D separately).
	rows := []struct {
		name string
		cfg  ipe.Config
	}{
		{"default (tile, D, L)", base},
		{"no dict budget", ipe.Config{MaxDepth: base.MaxDepth, TileSize: base.TileSize}},
		{"global (no tile)", ipe.Config{MaxDepth: base.MaxDepth}},
		{"depth L=1", ipe.Config{TileSize: base.TileSize, MaxDepth: 1}},
		{"depth L=2", ipe.Config{TileSize: base.TileSize, MaxDepth: 2}},
		{"depth L=4", ipe.Config{TileSize: base.TileSize, MaxDepth: 4}},
		{"unconstrained", ipe.Config{}},
	}
	for _, row := range rows {
		prog, stats, err := ipe.Encode(q, row.cfg)
		if err != nil {
			return err
		}
		cost := prog.Cost()
		t.AddRow(row.name,
			fmt.Sprint(prog.DictSize()),
			fmt.Sprint(prog.MaxDepthUsed()),
			fmt.Sprintf("%.2fx", stats.CompressionRatio()),
			report.Count(cost.Total()),
			report.Speedup(cost.Speedup(dense)))
	}
	// Greedy vs layered on a reduced layer (exact BPE is O(merges·stream)).
	small := tensor.New(16, 16, 3, 3)
	r := tensor.NewRNG(cfg.Seed + 7)
	tensor.FillGaussian(small, r, 0.2)
	sq := quant.Quantize(small, cfg.Bits, quant.PerTensor)
	sm := sq.Shape[0]
	sk := sq.NumElements() / sm
	sdense := ipe.DenseCost(sm, sk)
	for _, pol := range []ipe.Policy{ipe.PolicyLayered, ipe.PolicyGreedy} {
		c := ipe.Config{MaxDict: base.MaxDict, MaxDepth: base.MaxDepth,
			TileSize: base.TileSize, Policy: pol}
		prog, stats, err := ipe.Encode(sq, c)
		if err != nil {
			return err
		}
		cost := prog.Cost()
		t.AddRow("small layer, "+pol.String(),
			fmt.Sprint(prog.DictSize()),
			fmt.Sprint(prog.MaxDepthUsed()),
			fmt.Sprintf("%.2fx", stats.CompressionRatio()),
			report.Count(cost.Total()),
			report.Speedup(cost.Speedup(sdense)))
	}
	emit(cfg, t)
	return nil
}

// Fig9Banks prints the scratchpad bank-conflict figure: the measured
// serialization factor of the decode stage's pair-operand gather stream,
// for tile-local versus global encoding, across bank counts. The claim
// under test: the tile constraint does not worsen (and slightly improves)
// bank behaviour under word-interleaved banking.
func Fig9Banks(cfg Config) error {
	cfg = cfg.withDefaults()
	_, w, _, _ := midLayer(cfg)
	q := quant.Quantize(w, cfg.Bits, quant.PerTensor)
	fig := report.NewFigure(
		fmt.Sprintf("Fig 9: decode-gather bank conflict factor (mid layer, %d-bit, 32 lanes)", cfg.Bits),
		"banks")
	variants := []struct {
		name string
		cfg  ipe.Config
	}{
		{"tile-local", ipe.Config{MaxDict: cfg.IPE.MaxDict, MaxDepth: cfg.IPE.MaxDepth, TileSize: cfg.IPE.TileSize}},
		{"global", ipe.Config{MaxDict: cfg.IPE.MaxDict, MaxDepth: cfg.IPE.MaxDepth}},
	}
	banksList := []int{8, 16, 32, 64, 128}
	if cfg.Fast {
		banksList = []int{8, 32, 128}
	}
	for _, v := range variants {
		prog, _, err := ipe.Encode(q, v.cfg)
		if err != nil {
			return err
		}
		addrs := accel.PairAddressStream(prog.Pairs)
		s := report.Series{Name: v.name}
		for _, banks := range banksList {
			st := accel.SimulateGather(addrs, 32, banks)
			s.X = append(s.X, float64(banks))
			s.Y = append(s.Y, st.ConflictFactor())
		}
		fig.Add(s)
	}
	emitFig(cfg, fig)
	return nil
}

// Fig10Hardware prints the accelerator-sensitivity figure: IPE's speedup
// over dense on the mid layer as the PE count and the DRAM bandwidth sweep
// independently. Expected shape: more PEs push kernels toward memory-bound
// where IPE's smaller stream wins bigger; starved bandwidth amplifies the
// same effect, while huge bandwidth reduces the contest to pure op counts.
func Fig10Hardware(cfg Config) error {
	cfg = cfg.withDefaults()
	spec, w, h, wd := midLayer(cfg)

	peFig := report.NewFigure(
		fmt.Sprintf("Fig 10a: IPE speedup over dense vs PE count (mid layer, %d-bit, 16 GB/s)", cfg.Bits),
		"PEs")
	peSeries := report.Series{Name: "ipe/dense"}
	pes := []int{32, 64, 128, 256, 512, 1024}
	if cfg.Fast {
		pes = []int{64, 256, 1024}
	}
	for _, pe := range pes {
		c := cfg
		c.Accel.PEs = pe
		res, err := convImplResults(spec, w, 1, h, wd, c, 0)
		if err != nil {
			return err
		}
		peSeries.X = append(peSeries.X, float64(pe))
		peSeries.Y = append(peSeries.Y, float64(res["dense"].Cycles)/float64(res["ipe"].Cycles))
	}
	peFig.Add(peSeries)
	emitFig(cfg, peFig)

	bwFig := report.NewFigure(
		fmt.Sprintf("Fig 10b: IPE speedup over dense vs DRAM bandwidth (mid layer, %d-bit, 256 PEs)", cfg.Bits),
		"GB/s")
	bwSeries := report.Series{Name: "ipe/dense"}
	bws := []float64{2, 4, 8, 16, 32, 64}
	if cfg.Fast {
		bws = []float64{2, 16, 64}
	}
	for _, bw := range bws {
		c := cfg
		c.Accel.DRAMBandwidthGBs = bw
		res, err := convImplResults(spec, w, 1, h, wd, c, 0)
		if err != nil {
			return err
		}
		bwSeries.X = append(bwSeries.X, bw)
		bwSeries.Y = append(bwSeries.Y, float64(res["dense"].Cycles)/float64(res["ipe"].Cycles))
	}
	bwFig.Add(bwSeries)
	emitFig(cfg, bwFig)
	return nil
}

// Fig11Distributions prints the value-distribution robustness check: IPE
// and UCNN speedup over dense on the mid layer when the synthetic weights
// come from different distributions. Gains should be robust — they depend
// on quantized value multiplicity, which any of these distributions
// provides — with heavier-tailed weights quantizing sparser and hence
// compressing more.
func Fig11Distributions(cfg Config) error {
	cfg = cfg.withDefaults()
	spec, _, h, wd := midLayer(cfg)
	t := report.NewTable(
		fmt.Sprintf("Fig 11: weight-distribution sensitivity (mid layer, %d-bit)", cfg.Bits),
		"distribution", "distinct-vals", "sparsity", "ucnn-speedup", "ipe-speedup")
	r := tensor.NewRNG(cfg.Seed + 900)
	dists := []struct {
		name string
		fill func(*tensor.Tensor)
	}{
		{"gaussian", func(w *tensor.Tensor) { tensor.FillGaussian(w, r, 0.05) }},
		{"uniform", func(w *tensor.Tensor) { tensor.FillUniform(w, r, -0.1, 0.1) }},
		{"laplacian", func(w *tensor.Tensor) {
			// Difference of exponentials via inverse-CDF on uniforms.
			d := w.Data()
			for i := range d {
				u := r.Float64() - 0.5
				sign := float32(1)
				if u < 0 {
					sign, u = -1, -u
				}
				d[i] = sign * float32(-0.05*logClamped(1-2*u))
			}
		}},
		{"bimodal", func(w *tensor.Tensor) {
			d := w.Data()
			for i := range d {
				center := 0.08
				if r.Intn(2) == 0 {
					center = -0.08
				}
				d[i] = float32(center + r.NormFloat64()*0.01)
			}
		}},
	}
	for _, dist := range dists {
		w := tensor.New(spec.WeightShape()...)
		dist.fill(w)
		q := quant.Quantize(w, cfg.Bits, quant.PerTensor)
		res, err := convImplResults(spec, w, 1, h, wd, cfg, 0)
		if err != nil {
			return err
		}
		dense := float64(res["dense"].Cycles)
		t.AddRow(dist.name,
			fmt.Sprint(q.DistinctValues()),
			fmt.Sprintf("%.1f%%", q.Sparsity()*100),
			report.Speedup(dense/float64(res["ucnn"].Cycles)),
			report.Speedup(dense/float64(res["ipe"].Cycles)))
	}
	emit(cfg, t)
	return nil
}

// logClamped is math.Log with the argument clamped away from zero so the
// inverse-CDF sampler cannot produce infinities.
func logClamped(x float64) float64 {
	if x < 1e-12 {
		x = 1e-12
	}
	return math.Log(x)
}
