package tensor

import (
	"fmt"
	"testing"
)

// fillNorm fills x with standard normal values from r.
func fillNorm(r *RNG, x []float32) {
	for i := range x {
		x[i] = float32(r.NormFloat64())
	}
}

// TestGemmBlockedEdgeSweep is the edge-tile sweep: every m and n remainder
// against both micro-tile sizes (0..mr-1 / 0..nr-1 for the 4x4 and 8x8
// kernels, including the m < mr and n < nr degenerate shapes) crossed with
// k values straddling the k-panel boundary, asserting GemmBlocked is
// bit-identical to Gemm (the documented tolerance class of the tensor-gemm
// family: exact).
func TestGemmBlockedEdgeSweep(t *testing.T) {
	r := NewRNG(101)
	s := &Scratch{}
	ks := []int{1, 2, 3, 7, gemmKC - 1, gemmKC, gemmKC + 1, 2*gemmKC + 3}
	for m := 1; m <= 2*gemmMR8+1; m++ {
		for n := 1; n <= 2*gemmNR8+1; n++ {
			for _, k := range ks {
				a := make([]float32, m*k)
				b := make([]float32, k*n)
				fillNorm(r, a)
				fillNorm(r, b)
				want := make([]float32, m*n)
				Gemm(a, b, want, m, k, n)
				got := make([]float32, m*n)
				GemmBlocked(a, b, got, m, k, n, s)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("m=%d k=%d n=%d: GemmBlocked[%d]=%g, Gemm=%g (must be bit-identical)",
							m, k, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGemmBlockedZeroSigns checks the signed-zero corner explicitly: Gemm
// skips zero A values, GemmBlocked does not, and both must still agree
// bitwise (a +0-started chain never turns -0 by adding products).
func TestGemmBlockedZeroSigns(t *testing.T) {
	neg0 := float32(0)
	neg0 = -neg0
	a := []float32{0, neg0, 1, neg0, 0, -1}    // 2x3 with signed zeros
	b := []float32{neg0, 1, 0, neg0, -2, neg0} // 3x2
	want := make([]float32, 4)
	Gemm(a, b, want, 2, 3, 2)
	got := make([]float32, 4)
	GemmBlocked(a, b, got, 2, 3, 2, &Scratch{})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("signed-zero mismatch at %d: blocked %g vs %g", i, got[i], want[i])
		}
	}
}

// TestGemmBlockedParMatches checks the sharded path against the serial
// oracle for shard counts around the row-tile quantum, including shapes
// where shards land mid-tile and where m < shards.
func TestGemmBlockedParMatches(t *testing.T) {
	r := NewRNG(59)
	shapes := [][3]int{{1, 5, 3}, {6, 25, 9}, {13, 64, 13}, {33, 17, 21}, {64, gemmKC + 5, 12}}
	for _, shards := range []int{1, 2, 3, 5} {
		par := NewPar(nil, shards)
		for _, sz := range shapes {
			m, k, n := sz[0], sz[1], sz[2]
			a := make([]float32, m*k)
			b := make([]float32, k*n)
			fillNorm(r, a)
			fillNorm(r, b)
			want := make([]float32, m*n)
			Gemm(a, b, want, m, k, n)
			got := make([]float32, m*n)
			GemmBlockedPar(a, b, got, m, k, n, par)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d m=%d k=%d n=%d: par[%d]=%g want %g",
						shards, m, k, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGemmBlockedParScratchReuse exercises the packed-panel staging under a
// real worker pool: shard 0's scratch holds the shared B panels while every
// shard takes its own A panels, repeatedly and with interleaved shapes so
// arena growth happens mid-sequence. Run under -race this checks the
// staging pattern (pack before the parallel region, shard-local A panels)
// is free of data races; in all modes it checks reuse doesn't corrupt
// results.
func TestGemmBlockedParScratchReuse(t *testing.T) {
	par := forcedPar(4)
	r := NewRNG(7)
	shapes := [][3]int{{9, 33, 7}, {64, 144, 64}, {5, gemmKC + 9, 11}, {32, 27, 256}}
	for rep := 0; rep < 3; rep++ {
		for _, sz := range shapes {
			m, k, n := sz[0], sz[1], sz[2]
			a := make([]float32, m*k)
			b := make([]float32, k*n)
			fillNorm(r, a)
			fillNorm(r, b)
			want := make([]float32, m*n)
			Gemm(a, b, want, m, k, n)
			got := make([]float32, m*n)
			GemmBlockedPar(a, b, got, m, k, n, par)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rep=%d m=%d k=%d n=%d: [%d]=%g want %g", rep, m, k, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDenseGemmMatchesDense checks the packed dense path (direct-from-W
// micro-panel packing, no transpose materialization) is bit-identical to
// DenseIntoPar, with and without bias, at one shard (per-panel packing) and
// sharded (all panels staged up front).
func TestDenseGemmMatchesDense(t *testing.T) {
	r := NewRNG(23)
	shapes := [][3]int{{1, 400, 120}, {3, 25, 6}, {7, 150, 16}, {9, 513, 10}}
	for _, sz := range shapes {
		nb, k, m := sz[0], sz[1], sz[2]
		in := New(nb, k)
		w := New(m, k)
		bias := New(m)
		fillNorm(r, in.Data())
		fillNorm(r, w.Data())
		fillNorm(r, bias.Data())
		for _, b := range []*Tensor{nil, bias} {
			want := New(nb, m)
			DenseIntoPar(want, in, w, b, nil)
			for _, shards := range []int{1, 2, 3} {
				got := New(nb, m)
				DenseGemmIntoPar(got, in, w, b, NewPar(nil, shards))
				for i := range want.Data() {
					if got.Data()[i] != want.Data()[i] {
						t.Fatalf("shards=%d nb=%d k=%d m=%d bias=%v: [%d]=%g want %g",
							shards, nb, k, m, b != nil, i, got.Data()[i], want.Data()[i])
					}
				}
			}
		}
	}
}

// TestGemmBlockedZeroAlloc checks the packed paths stay allocation-free
// once the scratch arena is warm (the warm-executor zero-alloc guarantee).
func TestGemmBlockedZeroAlloc(t *testing.T) {
	const m, k, n = 33, 150, 21
	r := NewRNG(3)
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	fillNorm(r, a)
	fillNorm(r, b)
	s := &Scratch{}
	GemmBlocked(a, b, c, m, k, n, s) // warm the arena
	if avg := testing.AllocsPerRun(20, func() {
		GemmBlocked(a, b, c, m, k, n, s)
	}); avg != 0 {
		t.Fatalf("warm GemmBlocked allocates %.1f objects per run, want 0", avg)
	}
}

func BenchmarkGemmVariants(b *testing.B) {
	shapes := [][3]int{{64, 288, 256}, {16, 150, 784}, {120, 400, 16}, {128, 512, 128}}
	for _, sz := range shapes {
		m, k, n := sz[0], sz[1], sz[2]
		r := NewRNG(uint64(m*k + n))
		a := make([]float32, m*k)
		bb := make([]float32, k*n)
		c := make([]float32, m*n)
		fillNorm(r, a)
		fillNorm(r, bb)
		s := &Scratch{}
		b.Run(fmt.Sprintf("naive/m%d_k%d_n%d", m, k, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Gemm(a, bb, c, m, k, n)
			}
		})
		b.Run(fmt.Sprintf("blocked/m%d_k%d_n%d", m, k, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemmBlocked(a, bb, c, m, k, n, s)
			}
		})
	}
}
