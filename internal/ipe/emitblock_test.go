package ipe

import (
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// emitShapes are LeNet-5 / SqueezeNet layer shapes (m outputs, k inputs, p
// im2col columns): full 64-column blocks, ragged final blocks, and narrow
// 16- and 4-column executions.
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

func emitProg(tb testing.TB, m, k int, scheme quant.Scheme) *Compiled {
	tb.Helper()
	w := tensor.New(m, k)
	tensor.FillGaussian(w, tensor.NewRNG(uint64(m+k)), 1)
	prog, _, err := Encode(quant.Quantize(w, 4, scheme), DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return prog.Compiled()
}

// TestEmitBlockedBitIdentical checks the column-blocked matrix executor
// against the single-vector tape executor column by column: every output
// column must be bit-identical to ExecuteScratch on that input column (the
// contract that keeps the compiled matrix path in the IPE conformance
// family), at the served column count and at a 3-column tail-only block.
func TestEmitBlockedBitIdentical(t *testing.T) {
	for _, sh := range emitShapes {
		c := emitProg(t, sh.m, sh.k, quant.PerTensor)
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

// BenchmarkEmitBlocked times the column-blocked compiled matrix executor on
// four SqueezeNet layers at the shapes the served model runs them (4-bit
// per-channel codes, the default encoder): one full-block, one 64-, one 16-
// and one 4-column execution. Run it with and without -tags purego to
// compare the SSE2 kernels with their Go twins; make bench-smoke runs it
// with -benchtime=1x as a build-and-run smoke check.
func BenchmarkEmitBlocked(b *testing.B) {
	for _, sh := range []struct {
		name    string
		m, k, p int
	}{
		{"conv1_p256", 64, 27, 256},
		{"fire2.expand3x3_p64", 64, 144, 64},
		{"fire4.expand3x3_p16", 128, 288, 16},
		{"fire8.expand3x3_p4", 256, 576, 4},
	} {
		c := emitProg(b, sh.m, sh.k, quant.PerChannel)
		cols := make([]float32, sh.k*sh.p)
		r := tensor.NewRNG(6)
		for i := range cols {
			cols[i] = r.Float32()
		}
		dst := make([]float32, sh.m*sh.p)
		var s tensor.Scratch
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.executeMatrixColsBlocked(dst, cols, sh.p, 0, sh.p, &s)
			}
		})
	}
}
