package runtime

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
)

// TestResidentBytesCountsEachBiasOnce pins a stream-only plan's owned bytes
// to its compiled streams' MemoryBytes plus every conv/dense bias exactly
// once.
func TestResidentBytesCountsEachBiasOnce(t *testing.T) {
	for _, force := range []Impl{ImplIPE, ImplFactorized, ImplCSR} {
		p, err := Compile(nn.LeNet5(1, 7), Options{Force: force})
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for i := range p.Ops {
			op := &p.Ops[i]
			if k := op.Node.Kind; (k == graph.OpConv || k == graph.OpDense) && (op.Impl != force || len(op.streams) == 0) {
				t.Fatalf("-force %s: %s runs %s", force, op.Node, op.Impl)
			}
			for _, c := range op.streams {
				want += c.MemoryBytes()
			}
			if b := op.Node.Param("bias"); b != nil {
				want += int64(b.NumElements()) * 4
			}
		}
		owned, shared := p.ResidentBytes(nil)
		if owned != want || shared != 0 {
			t.Errorf("-force %s: owned %d, shared %d; want owned %d (programs + each bias once), shared 0",
				force, owned, shared, want)
		}
	}
}
