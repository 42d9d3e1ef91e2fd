package ipe

import (
	"fmt"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// emitShapes are the LeNet-5 / SqueezeNet layer shapes the serving
// benchmarks exercise (m outputs, k inputs, p im2col columns), spanning
// both emit regimes: wide column counts (>= emitWideCutoff, fused-slab
// streaming passes) and narrow ones (register-chunked emit, including the
// fully specialized 4-column block).
var emitShapes = []struct {
	m, k, p int
}{
	{6, 25, 784},   // lenet5 conv1
	{16, 150, 100}, // lenet5 conv2
	{64, 27, 256},  // squeezenet conv1
	{64, 144, 64},  // fire2 expand3x3
	{128, 288, 16}, // fire4 expand3x3
	{192, 432, 4},  // fire6 expand3x3
	{256, 576, 4},  // fire8 expand3x3
	{64, 512, 4},   // fire9 squeeze
}

func emitProg(tb testing.TB, m, k int) *Compiled {
	tb.Helper()
	w := tensor.New(m, k)
	tensor.FillGaussian(w, tensor.NewRNG(uint64(m+k)), 1)
	prog, _, err := Encode(quant.Quantize(w, 4, quant.PerTensor), DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return prog.Compiled()
}

// TestEmitBlockedBitIdentical checks the register-blocked matrix executor
// against the single-vector tape executor column by column: every output
// column must be bit-identical to ExecuteScratch on that input column (the
// contract that keeps the compiled matrix path in the IPE conformance
// family). Shapes cover both emit regimes and non-multiple-of-colBlock
// column counts.
func TestEmitBlockedBitIdentical(t *testing.T) {
	for _, sh := range emitShapes {
		c := emitProg(t, sh.m, sh.k)
		for _, p := range []int{sh.p, 3} {
			cols := make([]float32, sh.k*p)
			r := tensor.NewRNG(uint64(p))
			for i := range cols {
				cols[i] = r.Float32()*2 - 1
			}
			got := make([]float32, sh.m*p)
			var s tensor.Scratch
			c.executeMatrixColsBlocked(got, cols, p, 0, p, &s)

			x := make([]float32, sh.k)
			want := make([]float32, sh.m)
			scratch := make([]float32, c.ScratchLen())
			for j := 0; j < p; j++ {
				for i := 0; i < sh.k; i++ {
					x[i] = cols[i*p+j]
				}
				c.ExecuteScratch(x, want, scratch)
				for r := 0; r < sh.m; r++ {
					if got[r*p+j] != want[r] {
						t.Fatalf("m=%d k=%d p=%d col %d row %d: %x want %x",
							sh.m, sh.k, p, j, r, got[r*p+j], want[r])
					}
				}
			}
		}
	}
}

// BenchmarkEmitBlocked times the register-blocked compiled matrix executor
// on the serving shapes (make bench-smoke runs it with -benchtime=1x as a
// build-and-run smoke check).
func BenchmarkEmitBlocked(b *testing.B) {
	for _, sh := range emitShapes {
		c := emitProg(b, sh.m, sh.k)
		cols := make([]float32, sh.k*sh.p)
		r := tensor.NewRNG(6)
		for i := range cols {
			cols[i] = r.Float32()
		}
		dst := make([]float32, sh.m*sh.p)
		var s tensor.Scratch
		b.Run(fmt.Sprintf("m%d_k%d_p%d", sh.m, sh.k, sh.p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.executeMatrixColsBlocked(dst, cols, sh.p, 0, sh.p, &s)
			}
		})
	}
}
