package ipe

import (
	"testing"

	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// forcedPar builds a Par with real helper tokens so the sharded paths run
// on goroutines even on single-core machines.
func forcedPar(shards int) *tensor.Par {
	return tensor.NewPar(parallel.NewPool(shards), shards)
}

func encodeTestProgram(t *testing.T, m, k int, seed uint64) *Program {
	t.Helper()
	w := tensor.New(m, k)
	tensor.FillGaussian(w, tensor.NewRNG(seed), 0.1)
	q := quant.Quantize(w, 4, quant.PerTensor)
	prog, _, err := Encode(q, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestExecuteMatrixIntoParBitIdentical checks the column-sharded compiled
// matrix executor against the interpreter's serial walk for column counts
// below, at, and straddling the colBlock quantum.
func TestExecuteMatrixIntoParBitIdentical(t *testing.T) {
	prog := encodeTestProgram(t, 16, 32, 41)
	for _, pTotal := range []int{1, 63, 64, 65, 300} {
		cols := tensor.New(prog.K, pTotal)
		tensor.FillGaussian(cols, tensor.NewRNG(42), 1)
		want := make([]float32, prog.M*pTotal)
		var s tensor.Scratch
		prog.ExecuteMatrixInto(want, cols.Data(), pTotal, &s)
		for _, shards := range []int{1, 2, 3, 16} {
			got := make([]float32, prog.M*pTotal)
			prog.Compiled().ExecuteMatrixIntoPar(got, cols.Data(), pTotal, forcedPar(shards))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pTotal=%d shards=%d: [%d] = %v != serial %v", pTotal, shards, i, got[i], want[i])
				}
			}
		}
	}
}

// TestConvLayerForwardIntoParBitIdentical checks the fully sharded encoded
// convolution (parallel im2col + parallel program execution) against its
// one-shard run, including a grouped layer, with and without the fused
// ReLU.
func TestConvLayerForwardIntoParBitIdentical(t *testing.T) {
	specs := []tensor.ConvSpec{
		{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 4, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2},
	}
	for _, spec := range specs {
		w := tensor.New(spec.WeightShape()...)
		tensor.FillGaussian(w, tensor.NewRNG(43), 0.1)
		bias := tensor.New(spec.OutC)
		tensor.FillGaussian(bias, tensor.NewRNG(44), 0.1)
		layer, _, err := EncodeConv(w, bias, spec, 4, quant.PerChannel, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		in := tensor.New(2, spec.InC, 11, 11)
		tensor.FillGaussian(in, tensor.NewRNG(45), 1)
		oh, ow := spec.Normalize().OutDims(11, 11)
		for _, relu := range []bool{false, true} {
			want := tensor.New(2, spec.OutC, oh, ow)
			layer.ForwardIntoPar(want, in, relu, forcedPar(1))
			for _, shards := range []int{2, 4, 9} {
				got := tensor.New(2, spec.OutC, oh, ow)
				layer.ForwardIntoPar(got, in, relu, forcedPar(shards))
				for i := range want.Data() {
					if got.Data()[i] != want.Data()[i] {
						t.Fatalf("groups=%d relu=%v shards=%d: [%d] = %v != serial %v",
							spec.Groups, relu, shards, i, got.Data()[i], want.Data()[i])
					}
				}
			}
		}
	}
}
