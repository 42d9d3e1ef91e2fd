package baseline

import (
	"testing"

	"repro/internal/ipe"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// forcedPar builds a Par with real helper tokens so the sharded paths run
// on goroutines even on single-core machines.
func forcedPar(shards int) *tensor.Par {
	return tensor.NewPar(parallel.NewPool(shards), shards)
}

func parTestConvInputs(t *testing.T, spec tensor.ConvSpec) (in, w, bias *tensor.Tensor) {
	t.Helper()
	in = tensor.New(2, spec.InC, 10, 10)
	tensor.FillGaussian(in, tensor.NewRNG(51), 1)
	w = tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, tensor.NewRNG(52), 0.1)
	bias = tensor.New(spec.OutC)
	tensor.FillGaussian(bias, tensor.NewRNG(53), 0.1)
	return in, w, bias
}

func expectSame(t *testing.T, name string, shards int, got, want []float32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s shards=%d: [%d] = %v != serial %v (bit-exact required)",
				name, shards, i, got[i], want[i])
		}
	}
}

// TestConvCSRForwardIntoParBitIdentical checks the CSR convolution
// (ipe.SparseConv: one-term-per-nonzero programs on the column-sharded IPE
// executor) against its one-shard run, with and without the fused ReLU.
func TestConvCSRForwardIntoParBitIdentical(t *testing.T) {
	spec := tensor.ConvSpec{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	in, w, bias := parTestConvInputs(t, spec)
	l, err := ipe.SparseConv(quant.Quantize(w, 4, quant.PerChannel), bias, spec)
	if err != nil {
		t.Fatal(err)
	}
	oh, ow := spec.OutDims(10, 10)
	for _, relu := range []bool{false, true} {
		want := tensor.New(2, spec.OutC, oh, ow)
		l.ForwardIntoPar(want, in, relu, forcedPar(1))
		for _, shards := range []int{2, 5, 16} {
			got := tensor.New(2, spec.OutC, oh, ow)
			l.ForwardIntoPar(got, in, relu, forcedPar(shards))
			expectSame(t, "SparseConv", shards, got.Data(), want.Data())
		}
	}
}

// TestConvFactorizedForwardIntoParBitIdentical checks the value-factorized
// convolution (ipe.FactorizeConv: empty-dictionary programs on the
// column-sharded IPE executor) against its one-shard run, with and without
// the fused ReLU.
func TestConvFactorizedForwardIntoParBitIdentical(t *testing.T) {
	spec := tensor.ConvSpec{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	in, w, bias := parTestConvInputs(t, spec)
	l, err := ipe.FactorizeConv(quant.Quantize(w, 4, quant.PerChannel), bias, spec)
	if err != nil {
		t.Fatal(err)
	}
	oh, ow := spec.OutDims(10, 10)
	for _, relu := range []bool{false, true} {
		want := tensor.New(2, spec.OutC, oh, ow)
		l.ForwardIntoPar(want, in, relu, forcedPar(1))
		for _, shards := range []int{2, 5, 16} {
			got := tensor.New(2, spec.OutC, oh, ow)
			l.ForwardIntoPar(got, in, relu, forcedPar(shards))
			expectSame(t, "FactorizeConv", shards, got.Data(), want.Data())
		}
	}
}

// TestConvWinogradForwardIntoParBitIdentical checks the tile-row-sharded
// Winograd convolution against its one-shard run, including odd output
// extents (partial edge tiles).
func TestConvWinogradForwardIntoParBitIdentical(t *testing.T) {
	spec := tensor.ConvSpec{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	for _, hw := range []int{7, 10} { // odd and even output extents
		in := tensor.New(2, spec.InC, hw, hw)
		tensor.FillGaussian(in, tensor.NewRNG(54), 1)
		w := tensor.New(spec.WeightShape()...)
		tensor.FillGaussian(w, tensor.NewRNG(55), 0.1)
		bias := tensor.New(spec.OutC)
		tensor.FillGaussian(bias, tensor.NewRNG(56), 0.1)
		l, err := NewConvWinograd(w, bias, spec)
		if err != nil {
			t.Fatal(err)
		}
		oh, ow := spec.OutDims(hw, hw)
		want := tensor.New(2, spec.OutC, oh, ow)
		l.ForwardIntoPar(want, in, forcedPar(1))
		for _, shards := range []int{2, 3, 13} {
			got := tensor.New(2, spec.OutC, oh, ow)
			l.ForwardIntoPar(got, in, forcedPar(shards))
			expectSame(t, "ConvWinograd", shards, got.Data(), want.Data())
		}
	}
}

// TestCSRMatMatIntoParBitIdentical exercises the column-sharded sparse
// matmul (a Sparse program's compiled matrix executor) directly on a
// rectangular matrix.
func TestCSRMatMatIntoParBitIdentical(t *testing.T) {
	w := tensor.New(33, 20)
	tensor.FillGaussian(w, tensor.NewRNG(57), 0.2)
	quant.PruneMagnitude(w, 0.5)
	c := ipe.Sparse(quant.Quantize(w, 8, quant.PerChannel)).Compiled()
	b := tensor.New(20, 45)
	tensor.FillGaussian(b, tensor.NewRNG(58), 1)
	want := make([]float32, 33*45)
	c.ExecuteMatrixIntoPar(want, b.Data(), 45, forcedPar(1))
	for _, shards := range []int{2, 7, 40} {
		got := make([]float32, 33*45)
		c.ExecuteMatrixIntoPar(got, b.Data(), 45, forcedPar(shards))
		expectSame(t, "Sparse matrix", shards, got, want)
	}
}
