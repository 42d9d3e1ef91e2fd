package ipe_test

import (
	"fmt"

	"repro/internal/ipe"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// ExampleEncode shows the core flow: quantize a weight matrix, index-pair
// encode it, and inspect what the encoder found.
func ExampleEncode() {
	// Two rows sharing the index pair {0,1} under value 1.
	w := tensor.From([]float32{
		1, 1, 0, 0,
		1, 1, 0, 2,
	}, 2, 4)
	q := quant.Quantize(w, 8, quant.PerTensor)
	prog, stats, err := ipe.Encode(q, ipe.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("dictionary entries: %d\n", prog.DictSize())
	fmt.Printf("stream: %d symbols -> %d symbols\n", stats.InputSymbols, stats.OutputSymbols)
	fmt.Printf("round trip ok: %v\n", prog.VerifyAgainst(q) == nil)
	// Output:
	// dictionary entries: 1
	// stream: 5 symbols -> 3 symbols
	// round trip ok: true
}

// ExampleProgram_ExecuteMatrix evaluates an encoded program on an input
// vector, the one column of a [K, 1] matrix.
func ExampleProgram_ExecuteMatrix() {
	w := tensor.From([]float32{
		2, 2, 0,
		0, 2, 2,
	}, 2, 3)
	q := quant.Quantize(w, 8, quant.PerTensor)
	prog, _, _ := ipe.Encode(q, ipe.Config{})
	y := prog.ExecuteMatrix(tensor.From([]float32{1, 10, 100}, 3, 1))
	fmt.Println(y.At(0, 0), y.At(1, 0))
	// Output: 22 220
}

// ExampleProgram_Cost compares the encoded op count against dense
// execution.
func ExampleProgram_Cost() {
	r := tensor.NewRNG(7)
	w := tensor.New(32, 128)
	tensor.FillGaussian(w, r, 0.1)
	q := quant.Quantize(w, 4, quant.PerTensor)
	prog, _, _ := ipe.Encode(q, ipe.DefaultConfig())
	dense := ipe.DenseCost(32, 128)
	fmt.Printf("ipe needs fewer ops than dense: %v\n", prog.Cost().Total() < dense.Total())
	// Output: ipe needs fewer ops than dense: true
}

// ExampleProgram_MarshalBinary round-trips a program through its wire
// format.
func ExampleProgram_MarshalBinary() {
	w := tensor.From([]float32{1, 1, 1, 1}, 2, 2)
	q := quant.Quantize(w, 8, quant.PerTensor)
	prog, _, _ := ipe.Encode(q, ipe.Config{})
	data, _ := prog.MarshalBinary()
	var back ipe.Program
	if err := back.UnmarshalBinary(data); err != nil {
		panic(err)
	}
	fmt.Printf("loaded K=%d M=%d, valid: %v\n", back.K, back.M, back.Validate() == nil)
	// Output: loaded K=2 M=2, valid: true
}
