// Quickstart: index-pair encode a small fully connected layer, execute it,
// and verify it matches the dense reference — the five-minute tour of the
// public API.
package main

import (
	"fmt"
	"log"

	"repro/internal/ipe"
	"repro/internal/quant"
	"repro/internal/tensor"
)

func main() {
	// 1. Make a weight matrix (64 outputs, 256 inputs) with seeded
	//    synthetic values, as a stand-in for trained weights.
	r := tensor.NewRNG(42)
	w := tensor.New(64, 256)
	tensor.FillGaussian(w, r, tensor.KaimingStd(256))

	// 2. Quantize to 4 bits: few distinct values → lots of index-set
	//    repetition for the encoder to harvest.
	q := quant.Quantize(w, 4, quant.PerTensor)
	fmt.Printf("quantized: %d weights, %d distinct values, %.1f%% zero\n",
		q.NumElements(), q.DistinctValues(), q.Sparsity()*100)

	// 3. Index-pair encode under hardware-friendly constraints.
	prog, stats, err := ipe.Encode(q, ipe.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded: %d dictionary pairs, depth %d, stream compressed %.2fx in %d rounds\n",
		prog.DictSize(), prog.MaxDepthUsed(), stats.CompressionRatio(), stats.Rounds)

	// 4. The cost model: how many scalar ops does one inference need?
	cost := prog.Cost()
	dense := ipe.DenseCost(64, 256)
	fmt.Printf("ops: dense %d (%d mul + %d add) → ipe %d (%d mul + %d add): %.2fx fewer\n",
		dense.Total(), dense.Muls, dense.Adds,
		cost.Total(), cost.Muls, cost.Adds,
		cost.Speedup(dense))

	// 5. Execute on a real input and compare with the dense reference over
	//    the dequantized weights.
	x := make([]float32, 256)
	for i := range x {
		x[i] = float32(r.NormFloat64())
	}
	y := prog.ExecuteMatrix(tensor.From(x, 256, 1)).Data() // x as one column

	deq := q.Dequantize()
	want := make([]float32, 64)
	tensor.MatVec(deq.Data(), x, want, 64, 256)
	var maxDiff float64
	for i := range y {
		d := float64(y[i] - want[i])
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("executed: max |ipe - dense| = %.2e (same math, fewer ops)\n", maxDiff)

	// 6. And the round-trip guarantee: decoding the program reproduces the
	//    quantized weights bit-exactly.
	if err := prog.VerifyAgainst(q); err != nil {
		log.Fatalf("round trip failed: %v", err)
	}
	fmt.Println("round-trip verification: OK")
}
