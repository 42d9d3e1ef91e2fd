package ipe

import (
	"fmt"
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

// TestDenseLayerForwardIntoParBitIdentical checks the dense column path
// against its oracle — the interpreter on the [k, n] transpose of the input,
// transposed back and finished by tensor.AddBiasRows — bit for bit, NaN
// payloads included where the kernels pin them. It covers Factorize, Sparse
// and encoded programs, item counts that cross every step of the
// 16 → 4 → 1 cascade and the colBlock boundary, one and two shards, a nil
// bias, and the fused ReLU, on inputs laced with NaNs and signed zeros.
func TestDenseLayerForwardIntoParBitIdentical(t *testing.T) {
	r := tensor.NewRNG(46)
	encode := func(q *quant.Quantized) *Program {
		prog, _, err := Encode(q, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	for _, b := range []struct {
		name  string
		build func(*quant.Quantized) *Program
		bias  bool
	}{{"factorized", Factorize, true}, {"csr", Sparse, false}, {"ipe", encode, true}} {
		prog := b.build(matrixQuant(r))
		m, k := prog.M, prog.K
		var bias *tensor.Tensor
		if b.bias {
			bias = tensor.From(lacedInputs(r, m), m)
		}
		l := &DenseLayer{Program: prog, Bias: bias}
		for _, n := range []int{1, 2, 3, 4, 5, 8, 17, 65, 130} {
			in := tensor.From(lacedInputs(r, n*k), n, k)
			cols := make([]float32, k*n)
			for i := range cols {
				cols[i] = in.Data()[(i%n)*k+i/n]
			}
			res := make([]float32, m*n)
			var s tensor.Scratch
			prog.ExecuteMatrixInto(res, cols, n, &s)
			for _, relu := range []bool{false, true} {
				want := make([]float32, n*m)
				for i := range want {
					want[i] = res[(i%m)*n+i/m]
				}
				tensor.AddBiasRows(want, bias, relu, m)
				for _, shards := range []int{1, 2} {
					got := tensor.New(n, m)
					l.ForwardIntoPar(got, in, relu, forcedPar(shards))
					checkBits(t, fmt.Sprintf("%s M=%d K=%d n=%d relu=%v shards=%d", b.name, m, k, n, relu, shards),
						got.Data(), want, "interpreter", pinsNaNPayloads)
				}
			}
		}
	}
}

// TestDenseLayerForwardIntoParAllocs: once the scratch is warm, a one-shard
// call allocates nothing, with the staging copies (several items) and
// without them (one).
func TestDenseLayerForwardIntoParAllocs(t *testing.T) {
	prog := encodeTestProgram(t, 24, 40, 47)
	l := &DenseLayer{Program: prog, Bias: tensor.New(prog.M)}
	par := tensor.NewPar(nil, 1)
	for _, n := range []int{1, 8} {
		in := tensor.New(n, prog.K)
		out := tensor.New(n, prog.M)
		if allocs := testing.AllocsPerRun(20, func() { l.ForwardIntoPar(out, in, true, par) }); allocs != 0 {
			t.Fatalf("n=%d: %v allocations per warm call, want 0", n, allocs)
		}
	}
}
