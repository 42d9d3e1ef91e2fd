package experiments

import (
	"fmt"
	"time"

	"repro/internal/accel"
	"repro/internal/ipe"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/report"
	"repro/internal/tensor"
)

// Table1Workloads prints the workload-characteristics table: per model,
// the convolution count, parameter count and MACs, and per bit-width the
// average distinct weight values and zero-code sparsity per conv layer —
// the statistics that determine how much repetition IPE can harvest.
func Table1Workloads(cfg Config) error {
	cfg = cfg.withDefaults()
	t := report.NewTable(
		fmt.Sprintf("Table 1: workload characteristics (input %dx%d, seed %d)", cfg.HW, cfg.HW, cfg.Seed),
		"model", "convs", "params", "MACs",
		"vals@2b", "sprs@2b", "vals@4b", "sprs@4b", "vals@8b", "sprs@8b")
	for _, m := range zooModels(cfg) {
		g := m.Build(1, cfg.Seed)
		if err := g.InferShapes(); err != nil {
			return err
		}
		convs := nn.ConvLayers(g)
		row := []string{
			m.Name,
			fmt.Sprint(len(convs)),
			report.Count(g.NumParams()),
			report.Count(g.MACs()),
		}
		for _, bits := range []int{2, 4, 8} {
			var vals, sprs float64
			for _, c := range convs {
				q := quant.Quantize(c.Weight, bits, quant.PerTensor)
				vals += float64(q.DistinctValues())
				sprs += q.Sparsity()
			}
			n := float64(len(convs))
			row = append(row, report.Num(vals/n), fmt.Sprintf("%.1f%%", sprs/n*100))
		}
		t.AddRow(row...)
	}
	emit(cfg, t)
	return nil
}

// layerCosts computes the per-output-pixel arithmetic costs of every
// implementation for one quantized conv weight.
type layerCosts struct {
	dense, csr, fact, ipeC ipe.Cost
	prog                   *ipe.Program
	stats                  ipe.Stats
}

func costsFor(q *quant.Quantized, cfg Config) (layerCosts, error) {
	m := q.Shape[0]
	k := q.NumElements() / m
	var lc layerCosts
	lc.dense = ipe.DenseCost(m, k)
	var nnz int64
	for _, c := range q.Codes {
		if c != 0 {
			nnz++
		}
	}
	lc.csr = ipe.SparseCost(nnz)
	lc.fact = ipe.Factorize(q).Cost()
	prog, stats, err := ipe.Encode(q, cfg.IPE)
	if err != nil {
		return lc, err
	}
	lc.prog, lc.stats = prog, stats
	lc.ipeC = prog.Cost()
	return lc, nil
}

// Table2Arithmetic prints the per-layer arithmetic-reduction table: scalar
// ops per output pixel under dense, CSR, UCNN-style factorized and IPE
// execution, across pruning sparsities, at the main bit-width.
func Table2Arithmetic(cfg Config) error {
	cfg = cfg.withDefaults()
	convs, err := resnetUniqueConvs(cfg)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Table 2: scalar ops per output pixel, ResNet-18 unique convs, %d-bit", cfg.Bits),
		"layer", "shape", "sparsity", "dense", "csr", "ucnn", "ipe",
		"ipe/dense", "ipe/ucnn")
	sparsities := []float64{0, 0.5, 0.8}
	if cfg.Fast {
		sparsities = []float64{0, 0.8}
	}
	for _, uc := range convs {
		spec := uc.Info.Spec
		shape := fmt.Sprintf("%dx%dx%dx%d", spec.OutC, spec.InC, spec.KH, spec.KW)
		for _, sp := range sparsities {
			q := pruneAndQuantize(uc.Info.Weight, sp, cfg.Bits, quant.PerTensor)
			lc, err := costsFor(q, cfg)
			if err != nil {
				return err
			}
			t.AddRow(uc.ID, shape, fmt.Sprintf("%.0f%%", sp*100),
				report.Count(lc.dense.Total()),
				report.Count(lc.csr.Total()),
				report.Count(lc.fact.Total()),
				report.Count(lc.ipeC.Total()),
				report.Speedup(lc.ipeC.Speedup(lc.dense)),
				report.Speedup(lc.ipeC.Speedup(lc.fact)))
		}
	}
	emit(cfg, t)
	return nil
}

// Table3Encoding prints the encoder-cost table: wall-clock encode time,
// merge rounds, live dictionary size, stream compression ratio and the
// depth actually used, per unique ResNet-18 convolution.
func Table3Encoding(cfg Config) error {
	cfg = cfg.withDefaults()
	convs, err := resnetUniqueConvs(cfg)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Table 3: encoding cost (%d-bit, dict %d, depth %d, tile %d)",
			cfg.Bits, cfg.IPE.MaxDict, cfg.IPE.MaxDepth, cfg.IPE.TileSize),
		"layer", "weights", "nnz", "time", "rounds", "dict", "slots", "depth", "stream-compr")
	for _, uc := range convs {
		q := quant.Quantize(uc.Info.Weight, cfg.Bits, quant.PerTensor)
		start := time.Now()
		prog, stats, err := ipe.Encode(q, cfg.IPE)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		t.AddRow(uc.ID,
			report.Count(int64(q.NumElements())),
			report.Count(int64(stats.InputSymbols)),
			elapsed.Round(time.Millisecond).String(),
			fmt.Sprint(stats.Rounds),
			fmt.Sprint(prog.DictSize()),
			fmt.Sprint(prog.Compiled().NumSlots),
			fmt.Sprint(prog.MaxDepthUsed()),
			fmt.Sprintf("%.2fx", stats.CompressionRatio()))
	}
	emit(cfg, t)
	return nil
}

// resnetLayerProfiles aggregates whole-network accelerator profiles of
// ResNet-18's convolutions for each implementation.
func resnetLayerProfiles(cfg Config) (map[string]accel.KernelProfile, error) {
	g := nn.ResNet18(1, cfg.HW, 10, cfg.Seed)
	if err := g.InferShapes(); err != nil {
		return nil, err
	}
	convs := nn.ConvLayers(g)
	if cfg.Fast && len(convs) > 8 {
		convs = convs[:8]
	}
	profiles := map[string]accel.KernelProfile{}
	for _, c := range convs {
		dense := accel.DenseConvProfile(c.Spec, c.Batch, c.InH, c.InW)

		counts := ipe.CountCodes(quant.Quantize(c.Weight, cfg.Bits, quant.PerTensor))
		sparse := accel.SparseConvProfile(c.Spec, c.Batch, c.InH, c.InW, counts.Nonzeros)
		fact := accel.FactorizedConvProfile(c.Spec, c.Batch, c.InH, c.InW, counts.Factorized())

		il, _, err := ipe.EncodeConv(c.Weight, c.Bias, c.Spec, cfg.Bits, quant.PerTensor, cfg.IPE)
		if err != nil {
			return nil, err
		}
		ipeProf := accel.IPEConvProfile(il, c.Batch, c.InH, c.InW)

		for name, p := range map[string]accel.KernelProfile{
			"dense": dense, "csr": sparse, "ucnn": fact, "ipe": ipeProf,
		} {
			agg := profiles[name]
			agg.Name = name
			agg.Accumulate(p)
			profiles[name] = agg
		}
	}
	return profiles, nil
}

// Table4Energy prints the memory-traffic and energy table for ResNet-18's
// convolutions: DRAM bytes, SRAM accesses, modeled cycles and energy per
// inference under each implementation.
func Table4Energy(cfg Config) error {
	cfg = cfg.withDefaults()
	profiles, err := resnetLayerProfiles(cfg)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Table 4: ResNet-18 conv traffic & energy (input %dx%d, %d-bit)", cfg.HW, cfg.HW, cfg.Bits),
		"impl", "ops", "DRAM", "SRAM-acc", "cycles", "energy(uJ)", "vs dense")
	denseRes := cfg.Accel.Simulate(profiles["dense"])
	for _, name := range []string{"dense", "csr", "ucnn", "ipe"} {
		p := profiles[name]
		r := cfg.Accel.Simulate(p)
		t.AddRow(name,
			report.Count(p.Ops()),
			report.Bytes(r.DRAMBytes),
			report.Count(p.SRAMAccesses),
			report.Count(r.Cycles),
			report.Num(r.EnergyPJ/1e6),
			report.Speedup(float64(denseRes.Cycles)/float64(r.Cycles)))
	}
	emit(cfg, t)
	return nil
}

// Table5Storage prints the model-storage comparison: bytes needed to ship
// each unique ResNet-18 convolution's weights as dense float32, packed
// b-bit dense codes, CSR (4-byte value + 2-byte column), and the serialized
// IPE program (pair dictionary + emit stream, ipe.Program.WireSize).
func Table5Storage(cfg Config) error {
	cfg = cfg.withDefaults()
	convs, err := resnetUniqueConvs(cfg)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Table 5: weight storage per layer (%d-bit codes)", cfg.Bits),
		"layer", "dense-fp32", "packed-dense", "csr", "ipe-stream", "ipe/fp32")
	var sumDense, sumPacked, sumCSR, sumIPE int64
	for _, uc := range convs {
		q := quant.Quantize(uc.Info.Weight, cfg.Bits, quant.PerTensor)
		prog, _, err := ipe.Encode(q, cfg.IPE)
		if err != nil {
			return err
		}
		denseBytes := int64(q.NumElements()) * 4
		packedBytes := (int64(q.NumElements())*int64(cfg.Bits) + 7) / 8
		var nnz int64
		for _, c := range q.Codes {
			if c != 0 {
				nnz++
			}
		}
		csrBytes := nnz * 6
		ipeBytes := prog.WireSize()
		sumDense += denseBytes
		sumPacked += packedBytes
		sumCSR += csrBytes
		sumIPE += ipeBytes
		t.AddRow(uc.ID,
			report.Bytes(denseBytes), report.Bytes(packedBytes),
			report.Bytes(csrBytes), report.Bytes(ipeBytes),
			fmt.Sprintf("%.1f%%", float64(ipeBytes)/float64(denseBytes)*100))
	}
	t.AddRow("total",
		report.Bytes(sumDense), report.Bytes(sumPacked),
		report.Bytes(sumCSR), report.Bytes(sumIPE),
		fmt.Sprintf("%.1f%%", float64(sumIPE)/float64(sumDense)*100))
	emit(cfg, t)
	return nil
}

// Table6Sharing prints the cross-layer dictionary-sharing study: ResNet-18
// layers with repeated shapes are encoded separately and then jointly
// (ipe.EncodeShared); sharing should shrink the total dictionary (one
// scratchpad image serves all repeats) at equal arithmetic cost.
func Table6Sharing(cfg Config) error {
	cfg = cfg.withDefaults()
	convs, err := resnetUniqueConvs(cfg)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Table 6: cross-layer dictionary sharing (%d-bit)", cfg.Bits),
		"group", "layers", "sep-dict", "shared-dict", "dict-saving",
		"sep-ops", "shared-ops")
	r := tensorRNG(cfg.Seed + 500)
	for _, uc := range convs {
		if uc.Count < 2 {
			continue
		}
		// Materialize the repeated layers: same shape, independent weights
		// (as in the real network).
		qs := make([]*quant.Quantized, uc.Count)
		for i := range qs {
			w := uc.Info.Weight
			if i > 0 {
				w = w.Clone()
				tensor.FillGaussian(w, r, tensor.KaimingStd(w.NumElements()/w.Dim(0)))
			}
			qs[i] = quant.Quantize(w, cfg.Bits, quant.PerTensor)
		}
		var sepDict int
		var sepOps int64
		for _, q := range qs {
			p, _, err := ipe.Encode(q, cfg.IPE)
			if err != nil {
				return err
			}
			sepDict += p.DictSize()
			sepOps += p.Cost().Total()
		}
		// Shared encoding: give the joint dictionary the same total budget
		// the separate encodings had.
		shCfg := cfg.IPE
		if shCfg.MaxDict > 0 {
			shCfg.MaxDict *= uc.Count
		}
		progs, _, err := ipe.EncodeShared(qs, shCfg)
		if err != nil {
			return err
		}
		var sharedOps int64
		for _, p := range progs {
			c := p.Cost()
			// Dictionary adds are shared: count them once, not per layer.
			sharedOps += c.Total() - c.DictEntries
		}
		sharedOps += int64(progs[0].DictSize())
		t.AddRow(uc.ID, fmt.Sprint(uc.Count),
			fmt.Sprint(sepDict), fmt.Sprint(progs[0].DictSize()),
			fmt.Sprintf("%.1f%%", (1-float64(progs[0].DictSize())/float64(sepDict))*100),
			report.Count(sepOps), report.Count(sharedOps))
	}
	if t.NumRows() == 0 {
		t.AddRow("(no repeated shapes at this scale)")
	}
	emit(cfg, t)
	return nil
}

// tensorRNG is a tiny indirection so tables.go keeps a single tensor import
// site for RNG construction.
func tensorRNG(seed uint64) *tensor.RNG { return tensor.NewRNG(seed) }
