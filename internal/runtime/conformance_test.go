package runtime

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/ipe"
	"repro/internal/nn"
	"repro/internal/quant"
)

// streamsFrom builds and lowers op's implementation from the codes q the
// way Compile does, without a dictionary store, for comparison with the
// streams op serves.
func streamsFrom(t *testing.T, p *Plan, op *CompiledOp, q *quant.Quantized) []*ipe.Compiled {
	t.Helper()
	_, b, _, err := build(op.Node, op.Impl, codes{q: q}, p.Opts, false)
	if err != nil {
		t.Fatal(err)
	}
	return b.lower(op.Impl, nil).streams
}

// TestEffectiveWeightsMatchQuantizer checks EffectiveWeights on both served
// models, under auto selection and under every forced implementation: each
// CSR, factorized or IPE operator's effective weight must be the
// quantizer's dequantization bit for bit, its served streams must be the
// lowering of the quantizer's codes, and no other operator may have an
// effective weight.
func TestEffectiveWeightsMatchQuantizer(t *testing.T) {
	models := []struct {
		name  string
		graph func() *graph.Graph
	}{
		{"lenet5", func() *graph.Graph { return nn.LeNet5(1, 7) }},
		{"squeezenet", func() *graph.Graph { return nn.SqueezeNet(1, 32, 10, 14) }},
	}
	for _, m := range models {
		for _, impl := range append([]Impl{ImplAuto}, ForceableImpls()...) {
			t.Run(m.name+"/"+impl.String(), func(t *testing.T) {
				plan, err := Compile(m.graph(), Options{Force: impl})
				if err != nil {
					t.Fatal(err)
				}
				eff, err := plan.EffectiveWeights()
				if err != nil {
					t.Fatal(err)
				}
				quantized := 0
				for i := range plan.Ops {
					op := &plan.Ops[i]
					got, ok := eff[op.Node.ID]
					if op.Impl != ImplCSR && op.Impl != ImplFactorized && op.Impl != ImplIPE {
						if ok {
							t.Fatalf("%s runs %s but has an effective weight", op.Node.Name, op.Impl)
						}
						continue
					}
					if !ok {
						t.Fatalf("%s runs %s but has no effective weight", op.Node.Name, op.Impl)
					}
					quantized++
					w := op.Node.Param("weight")
					q := quant.Quantize(w, plan.Opts.Bits, quant.PerChannel)
					if !got.Shape().Equal(w.Shape()) {
						t.Fatalf("%s: effective weight shape %v, node weight %v", op.Node.Name, got.Shape(), w.Shape())
					}
					expectBitsEqual(t, op.Node.Name, got.Data(), q.Dequantize().Data())
					if !reflect.DeepEqual(op.streams, streamsFrom(t, plan, op, q)) {
						t.Fatalf("%s: served streams are not the lowering of the quantizer's codes", op.Node.Name)
					}
				}
				if impl != ImplAuto && impl != ImplDense && impl != ImplWinograd && quantized == 0 {
					t.Fatalf("forced %s compiled no quantized operator", impl)
				}
			})
		}
	}
}
