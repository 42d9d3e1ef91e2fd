package ipe

import (
	"fmt"
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

func emitProg(tb testing.TB, m, k int, scheme quant.Scheme) *Program {
	tb.Helper()
	w := tensor.New(m, k)
	tensor.FillGaussian(w, tensor.NewRNG(uint64(m+k)), 1)
	prog, _, err := Encode(quant.Quantize(w, 4, scheme), DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// TestEmitBlockedBitIdentical checks the column-blocked matrix executor
// against the interpreter (Program.ExecuteMatrixInto) bit for bit on
// served layer shapes, at the served column count and at a 3-column
// block that runs the one-column emit alone.
func TestEmitBlockedBitIdentical(t *testing.T) {
	for _, sh := range emitShapes {
		prog := emitProg(t, sh.m, sh.k, quant.PerTensor)
		for _, p := range []int{sh.p, 3} {
			cols := make([]float32, sh.k*p)
			r := tensor.NewRNG(uint64(p))
			for i := range cols {
				cols[i] = r.Float32()*2 - 1
			}
			got := make([]float32, sh.m*p)
			var s tensor.Scratch
			prog.Compiled().executeMatrixColsBlocked(got, cols, p, 0, p, &s)
			want := make([]float32, sh.m*p)
			prog.ExecuteMatrixInto(want, cols, p, &s)
			checkBits(t, fmt.Sprintf("m=%d k=%d p=%d", sh.m, sh.k, p), got, want, "interpreter", pinsNaNPayloads)
		}
	}
}

// BenchmarkEmitBlocked times the column-blocked compiled matrix executor on
// SqueezeNet layers at the widths the served model runs them (4-bit
// per-channel codes, the default encoder): full 64-column blocks (conv1 and
// fire3 at 256 columns, fire2 at 64), 16 columns (fire4, and fire8 at four
// items per worker) and 4 (fire8 at one item), so both emits of the
// 16 → 4 → 1 cascade are timed at a served width (BenchmarkDenseLayer
// times the one-column emit). Run it with and without
// -tags purego to compare the SSE2 kernels with their Go twins; make
// bench-smoke runs it with -benchtime=1x as a build-and-run smoke check.
func BenchmarkEmitBlocked(b *testing.B) {
	for _, sh := range []struct {
		name    string
		m, k, p int
	}{
		{"conv1_p256", 64, 27, 256},
		{"fire2.expand3x3_p64", 64, 144, 64},
		{"fire3.expand3x3_p256", 64, 144, 256},
		{"fire4.expand3x3_p16", 128, 288, 16},
		{"fire8.expand3x3_p16", 256, 576, 16},
		{"fire8.expand3x3_p4", 256, 576, 4},
	} {
		c := emitProg(b, sh.m, sh.k, quant.PerChannel).Compiled()
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
