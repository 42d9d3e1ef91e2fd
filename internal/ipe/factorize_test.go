package ipe

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// factorizedMatMat is the loop of the scalar value-factorized executor
// that empty-dictionary programs replaced: per output an accumulator from
// +0, per term a group sum from +0 over the term's indices in order, then
// accumulator += Value·group. It is the oracle Factorize programs must
// reproduce on the IPE executor.
func factorizedMatMat(p *Program, dst, b []float32, cols int) {
	group := make([]float32, cols)
	for r := range p.Rows {
		out := dst[r*cols : (r+1)*cols]
		clear(out)
		for _, t := range p.Rows[r].Terms {
			clear(group)
			for _, i := range t.Syms {
				src := b[int(i)*cols : int(i)*cols+cols]
				for j := range src {
					group[j] += src[j]
				}
			}
			for j := range out {
				out[j] += t.Value * group[j]
			}
		}
	}
}

// TestFactorizeMatchesFactorizedLoops checks Factorize programs against the
// scalar factorized loop bit for bit, on inputs laced with special values:
// the compiled matrix executor at every column count 1..130 (one column is
// the single item a dense layer serves) on one to three shards, NaN
// payloads included where its kernels pin them.
func TestFactorizeMatchesFactorizedLoops(t *testing.T) {
	for pTotal := 1; pTotal <= 130; pTotal++ {
		r := tensor.NewRNG(uint64(7000 + pTotal))
		prog := Factorize(matrixQuant(r))
		cols := lacedInputs(r, prog.K*pTotal)
		if err := prog.Validate(); err != nil || prog.DictSize() != 0 {
			t.Fatalf("Factorize: dictionary %d, Validate %v", prog.DictSize(), err)
		}
		c := prog.Compiled()

		want := make([]float32, prog.M*pTotal)
		factorizedMatMat(prog, want, cols, pTotal)
		got := make([]float32, prog.M*pTotal)
		shards := 1 + pTotal%3
		c.ExecuteMatrixIntoPar(got, cols, pTotal, forcedPar(shards))
		checkBits(t, fmt.Sprintf("M=%d K=%d pTotal=%d shards=%d: ExecuteMatrixIntoPar", prog.M, prog.K, pTotal, shards),
			got, want, "factorized loop", pinsNaNPayloads)

	}
}

// TestFactorizeStreamsMatchLowering checks that the streams Factorize emits
// from its row grouping are exactly what the general lowering makes of the
// same program, and that the program's terms window them.
func TestFactorizeStreamsMatchLowering(t *testing.T) {
	check := func(name string, p *Program) {
		t.Helper()
		got := p.Compiled()
		if want := compile(p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Factorize streams %+v, lowering %+v", name, got, want)
		}
		off := 0
		for r, row := range p.Rows {
			for i, term := range row.Terms {
				if cap(term.Syms) != len(term.Syms) || &term.Syms[0] != &got.syms[off] {
					t.Errorf("%s: row %d term %d: Syms is not its capacity-limited window of the streams' syms", name, r, i)
				}
				off += len(term.Syms)
			}
		}
	}
	matrix := func(codes []int32, m, k, bits int) *quant.Quantized {
		return &quant.Quantized{Codes: codes, Shape: tensor.Shape{m, k}, Bits: bits, Params: []quant.Params{{Scale: 0.5}}}
	}
	check("1x1", Factorize(matrix([]int32{3}, 1, 1, 4)))
	check("1x1 zero", Factorize(matrix([]int32{0}, 1, 1, 4)))
	check("all-zero matrix", Factorize(matrix(make([]int32, 12), 3, 4, 4)))
	check("all-zero rows", Factorize(matrix([]int32{
		0, 0, 0, 0,
		1, -2, 0, 1,
		0, 0, 0, 0,
		0, 0, 0, 0,
		-2, -2, 3, 0,
		0, 0, 0, 0,
	}, 6, 4, 4)))
	for _, bits := range []int{2, 4, 8} {
		for _, scheme := range []quant.Scheme{quant.PerTensor, quant.PerChannel} {
			r := tensor.NewRNG(uint64(100 + bits))
			w := tensor.New(17, 45)
			tensor.FillGaussian(w, r, 1)
			quant.PruneMagnitude(w, 0.3)
			for i := 0; i < 45; i++ { // row 5 all zero
				w.Data()[5*45+i] = 0
			}
			check(fmt.Sprintf("bits %d %v", bits, scheme), Factorize(quant.Quantize(w, bits, scheme)))

			spec := tensor.ConvSpec{InC: 6, OutC: 9, KH: 3, KW: 3, StrideH: 1, StrideW: 1, Groups: 3}
			cw := tensor.New(spec.WeightShape()...)
			tensor.FillGaussian(cw, r, 1)
			l, err := FactorizeConv(quant.Quantize(cw, bits, scheme), nil, spec)
			if err != nil {
				t.Fatal(err)
			}
			for g, p := range l.Programs {
				check(fmt.Sprintf("bits %d %v conv group %d", bits, scheme, g), p)
			}
		}
	}
}
