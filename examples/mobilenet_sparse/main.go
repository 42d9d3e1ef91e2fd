// MobileNet pruning study: sweep magnitude-pruning sparsity on a MobileNet
// pointwise (1x1) convolution and watch the implementation crossover — CSR
// only overtakes dense at high sparsity, while IPE wins much earlier
// because it exploits value repetition, not only zeros.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/accel"
	"repro/internal/ipe"
	"repro/internal/quant"
	"repro/internal/report"
	"repro/internal/tensor"
)

func main() {
	// MobileNetV1's dsconv6.pw shape: 256→512 pointwise conv on a 8x8 map
	// (input 64x64 scale).
	spec := tensor.ConvSpec{InC: 256, OutC: 512, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	const h, w = 8, 8
	const bits = 4
	hwCfg := accel.Default()

	r := tensor.NewRNG(11)
	weights := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(weights, r, tensor.KaimingStd(spec.InC))

	t := report.NewTable("MobileNet pointwise conv: implementation crossover vs sparsity (4-bit)",
		"sparsity", "nnz", "dense(cyc)", "csr(cyc)", "ucnn(cyc)", "ipe(cyc)", "winner")
	for _, sp := range []float64{0, 0.25, 0.5, 0.7, 0.8, 0.9, 0.95} {
		wc := weights.Clone()
		if sp > 0 {
			quant.PruneMagnitude(wc, sp)
		}
		counts := ipe.CountCodes(quant.Quantize(wc, bits, quant.PerTensor))
		nnz := counts.Nonzeros

		dense := hwCfg.Simulate(accel.DenseConvProfile(spec, 1, h, w))
		csr := hwCfg.Simulate(accel.SparseConvProfile(spec, 1, h, w, nnz))
		ucnn := hwCfg.Simulate(accel.FactorizedConvProfile(spec, 1, h, w, counts.Factorized()))

		il, _, err := ipe.EncodeConv(wc, nil, spec, bits, quant.PerTensor, ipe.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		ipeRes := hwCfg.Simulate(accel.IPEConvProfile(il, 1, h, w))

		winner, best := "dense", dense.Cycles
		for name, res := range map[string]accel.Result{"csr": csr, "ucnn": ucnn, "ipe": ipeRes} {
			if res.Cycles < best {
				winner, best = name, res.Cycles
			}
		}
		t.AddRow(fmt.Sprintf("%.0f%%", sp*100),
			report.Count(nnz),
			report.Count(dense.Cycles), report.Count(csr.Cycles),
			report.Count(ucnn.Cycles), report.Count(ipeRes.Cycles),
			winner)
	}
	t.Fprint(os.Stdout)
	fmt.Println("\nnote: IPE wins from moderate sparsity because value repetition, not")
	fmt.Println("just zeros, feeds the pair dictionary; CSR needs high sparsity to pay")
	fmt.Println("for its per-nonzero index traffic.")
}
