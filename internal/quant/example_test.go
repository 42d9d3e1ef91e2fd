package quant_test

import (
	"fmt"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// ExampleQuantize shows symmetric quantization and its reconstruction
// error bound.
func ExampleQuantize() {
	w := tensor.From([]float32{-1, -0.5, 0, 0.5, 1}, 5, 1)
	q := quant.Quantize(w, 4, quant.PerTensor)
	fmt.Printf("codes in [-7,7]: %v\n", q.Codes)
	fmt.Printf("max error <= scale/2: %v\n",
		tensor.MaxAbsDiff(q.Dequantize(), w) <= float64(q.Params[0].Scale)/2*1.001)
	// Output:
	// codes in [-7,7]: [-7 -3 0 3 7]
	// max error <= scale/2: true
}

// ExamplePruneMagnitude zeroes the smallest-magnitude half of a tensor.
func ExamplePruneMagnitude() {
	w := tensor.From([]float32{5, -0.1, 3, 0.2, -4, 0.05}, 6)
	n := quant.PruneMagnitude(w, 0.5)
	fmt.Printf("pruned %d: %v\n", n, w.Data())
	// Output: pruned 3: [5 0 3 0 -4 0]
}
