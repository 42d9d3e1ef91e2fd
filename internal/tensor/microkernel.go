package tensor

import (
	"fmt"

	"repro/internal/metrics"
)

// Register-blocked packed GEMM.
//
// Gemm's cache-blocked loop nest performs one C load, one multiply-add and
// one C store per inner iteration — the accumulator lives in memory. This
// file is the GEBP-style rework: operands are packed into cache-resident
// panels (A as [kc][mr] column-major micro-panels, B as [kc][nr] row-major
// micro-panels) and an mr x nr microkernel written as straight-line
// unrolled Go over fixed-size sub-slices drives the inner loop with all
// mr*nr accumulators in locals, so each k step costs mr+nr loads for mr*nr
// multiply-adds and C is touched once per panel instead of once per k.
//
// Edge tiles are handled by zero-padding the packed panels to full
// micro-tile width (padded lanes compute garbage that is never stored) and
// guarding the C load/store with the live tile bounds — one microkernel,
// no scalar fallback loops in the hot path.
//
// Bit-identity: for every C element the accumulation is a single chain in
// ascending k — the microkernel starts the accumulator at 0 (or, on later
// k panels, at the partial value loaded back from C) and adds a[i,p]*b[p,j]
// for p ascending, which is exactly Gemm's per-element order. Gemm's
// skip of zero A values cannot be observed either: an accumulator chain
// starting at +0 never reaches -0 by adding products, so adding the ±0
// products the skip elides leaves every bit unchanged. GemmBlocked is
// therefore bit-identical to Gemm and shares its conformance family
// ("tensor-gemm"), enforced across the full seed sweep.
const (
	gemmMR  = 4   // 4x4 microkernel rows
	gemmNR  = 4   // 4x4 microkernel columns
	gemmMR8 = 8   // 8x8 microkernel rows
	gemmNR8 = 8   // 8x8 microkernel columns
	gemmKC  = 512 // k-panel depth: A+B micro-panels stay L1/L2-resident
)

// gemmTiles picks the micro-tile size for a problem: the 8x8 kernel
// amortizes each packed B load over twice as many multiply-adds and wins
// once n offers full-width tiles; small problems stay on 4x4 where padding
// waste and C-edge guards cost less.
func gemmTiles(m, n int) (mr, nr int) {
	if m >= gemmMR8 && n >= gemmNR8 {
		return gemmMR8, gemmNR8
	}
	return gemmMR, gemmNR
}

// GemmBlocked computes C = A·B with packed panels and the register-blocked
// microkernel, drawing pack buffers from the caller's Scratch (zero heap
// allocations once the arena is warm). Bit-identical to Gemm.
func GemmBlocked(a, b, c []float32, m, k, n int, s *Scratch) {
	metrics.Count(metrics.KernelGEMM)
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("tensor: GemmBlocked buffer too small for m=%d k=%d n=%d", m, k, n))
	}
	if m == 0 || n == 0 {
		return
	}
	mark := s.Mark()
	mr, nr := gemmTiles(m, n)
	kc := min(k, gemmKC)
	nt := (n + nr - 1) / nr
	pb := s.Take(nt * kc * nr)
	pa := s.Take(kc * mr)
	for p0 := 0; p0 < k || p0 == 0; p0 += kc {
		kb := min(kc, k-p0)
		if p0 > 0 && kb <= 0 {
			break
		}
		packB(pb, b, n, p0, kb, kc, nr)
		gemmRowRange(a, c, pa, pb, m, k, n, p0, kb, kc, 0, m, mr, nr)
	}
	s.Release(mark)
}

// GemmBlockedPar is GemmBlocked sharded over mr-aligned row blocks of C on
// the given parallelism context. B panels are packed once into shard 0's
// scratch before the parallel region (all shards read them; packing is
// never concurrent with region execution), each shard packs its own A
// micro-panels. Row blocking does not change any element's accumulation
// chain, so results are bit-identical to GemmBlocked and Gemm for any
// shard count.
func GemmBlockedPar(a, b, c []float32, m, k, n int, par *Par) {
	metrics.Count(metrics.KernelGEMM)
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("tensor: GemmBlockedPar buffer too small for m=%d k=%d n=%d", m, k, n))
	}
	if !par.Parallel() {
		GemmBlocked(a, b, c, m, k, n, par.Scratch(0))
		return
	}
	if m == 0 || n == 0 {
		return
	}
	mr, nr := gemmTiles(m, n)
	kc := min(k, gemmKC)
	nt := (n + nr - 1) / nr
	panels := (k + kc - 1) / kc
	s0 := par.Scratch(0)
	mark := s0.Mark()
	pbAll := s0.Take(panels * nt * kc * nr)
	for pi := 0; pi < panels; pi++ {
		p0 := pi * kc
		packB(pbAll[pi*nt*kc*nr:(pi+1)*nt*kc*nr], b, n, p0, min(kc, k-p0), kc, nr)
	}
	par.ForBlocks(m, mr, func(shard, lo, hi int) {
		s := par.Scratch(shard)
		smark := s.Mark()
		pa := s.Take(kc * mr)
		for pi := 0; pi < panels; pi++ {
			p0 := pi * kc
			gemmRowRange(a, c, pa, pbAll[pi*nt*kc*nr:(pi+1)*nt*kc*nr],
				m, k, n, p0, min(kc, k-p0), kc, lo, hi, mr, nr)
		}
		s.Release(smark)
	})
	s0.Release(mark)
}

// gemmRowRange runs one k panel [p0, p0+kb) over C rows [lo, hi): packs
// each mr-row micro-panel of A and sweeps the packed B tiles through the
// microkernel. Accumulation resumes from C when p0 > 0.
func gemmRowRange(a, c, pa, pb []float32, m, k, n, p0, kb, kc, lo, hi, mr, nr int) {
	for i0 := lo; i0 < hi; i0 += mr {
		mh := min(mr, hi-i0)
		packA(pa, a, k, i0, mh, p0, kb, mr)
		for j0 := 0; j0 < n; j0 += nr {
			nw := min(nr, n-j0)
			tile := pb[(j0/nr)*kc*nr:]
			if mr == gemmMR8 {
				micro8x8(pa, tile, kb, c, n, i0, j0, mh, nw, p0 > 0)
			} else {
				micro4x4(pa, tile, kb, c, n, i0, j0, mh, nw, p0 > 0)
			}
		}
	}
}

// packA packs the mh-row micro-panel of A starting at row i0, k range
// [p0, p0+kb), into pa as [kb][mr] (column-major micro-panel), zero-padding
// rows past mh.
func packA(pa, a []float32, k, i0, mh, p0, kb, mr int) {
	for p := 0; p < kb; p++ {
		d := pa[p*mr : p*mr+mr : p*mr+mr]
		for ii := 0; ii < mh; ii++ {
			d[ii] = a[(i0+ii)*k+p0+p]
		}
		for ii := mh; ii < mr; ii++ {
			d[ii] = 0
		}
	}
}

// packB packs the k range [p0, p0+kb) of every nr-column tile of B into pb
// as consecutive [kc][nr] micro-panels (tile stride kc*nr), zero-padding
// columns past n.
func packB(pb, b []float32, n, p0, kb, kc, nr int) {
	nt := (n + nr - 1) / nr
	for jt := 0; jt < nt; jt++ {
		j0 := jt * nr
		nw := min(nr, n-j0)
		dst := pb[jt*kc*nr:]
		for p := 0; p < kb; p++ {
			src := b[(p0+p)*n+j0:]
			d := dst[p*nr : p*nr+nr : p*nr+nr]
			for jj := 0; jj < nw; jj++ {
				d[jj] = src[jj]
			}
			for jj := nw; jj < nr; jj++ {
				d[jj] = 0
			}
		}
	}
}

// packBT is packB for an implicitly transposed source: wt[p][j] = w[j*k+p]
// for the row-major [n, k] matrix w (a dense layer's weights), so the
// dense GEMM path never materializes the transpose.
func packBT(pb, w []float32, n, k, p0, kb, kc, nr int) {
	nt := (n + nr - 1) / nr
	for jt := 0; jt < nt; jt++ {
		j0 := jt * nr
		nw := min(nr, n-j0)
		dst := pb[jt*kc*nr:]
		for jj := 0; jj < nw; jj++ {
			src := w[(j0+jj)*k+p0:]
			for p := 0; p < kb; p++ {
				dst[p*nr+jj] = src[p]
			}
		}
		for jj := nw; jj < nr; jj++ {
			for p := 0; p < kb; p++ {
				dst[p*nr+jj] = 0
			}
		}
	}
}

// micro4x4 is the 4x4 register microkernel: 16 accumulators in locals, one
// straight-line unrolled multiply-add block per k step (8 loads per 16
// multiply-adds). accum resumes the chains from C's current values (later
// k panels); otherwise chains start at 0. Only the mh x nw live region of
// C is loaded or stored.
func micro4x4(pa, pb []float32, kb int, c []float32, ldc, i0, j0, mh, nw int, accum bool) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	var c20, c21, c22, c23 float32
	var c30, c31, c32, c33 float32
	if accum {
		r0 := c[i0*ldc+j0:]
		switch {
		case mh == gemmMR && nw == gemmNR:
			r1 := c[(i0+1)*ldc+j0:]
			r2 := c[(i0+2)*ldc+j0:]
			r3 := c[(i0+3)*ldc+j0 : (i0+3)*ldc+j0+4]
			c00, c01, c02, c03 = r0[0], r0[1], r0[2], r0[3]
			c10, c11, c12, c13 = r1[0], r1[1], r1[2], r1[3]
			c20, c21, c22, c23 = r2[0], r2[1], r2[2], r2[3]
			c30, c31, c32, c33 = r3[0], r3[1], r3[2], r3[3]
		default:
			acc := [gemmMR][gemmNR]float32{}
			for ii := 0; ii < mh; ii++ {
				row := c[(i0+ii)*ldc+j0:]
				for jj := 0; jj < nw; jj++ {
					acc[ii][jj] = row[jj]
				}
			}
			c00, c01, c02, c03 = acc[0][0], acc[0][1], acc[0][2], acc[0][3]
			c10, c11, c12, c13 = acc[1][0], acc[1][1], acc[1][2], acc[1][3]
			c20, c21, c22, c23 = acc[2][0], acc[2][1], acc[2][2], acc[2][3]
			c30, c31, c32, c33 = acc[3][0], acc[3][1], acc[3][2], acc[3][3]
		}
	}
	for p := 0; p < kb; p++ {
		bv := pb[p*gemmNR : p*gemmNR+gemmNR : p*gemmNR+gemmNR]
		av := pa[p*gemmMR : p*gemmMR+gemmMR : p*gemmMR+gemmMR]
		b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
		a0 := av[0]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		a1 := av[1]
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a2 := av[2]
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		a3 := av[3]
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	if mh == gemmMR && nw == gemmNR {
		r0 := c[i0*ldc+j0:]
		r1 := c[(i0+1)*ldc+j0:]
		r2 := c[(i0+2)*ldc+j0:]
		r3 := c[(i0+3)*ldc+j0 : (i0+3)*ldc+j0+4]
		r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
		r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
		r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
		r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
		return
	}
	acc := [gemmMR][gemmNR]float32{
		{c00, c01, c02, c03},
		{c10, c11, c12, c13},
		{c20, c21, c22, c23},
		{c30, c31, c32, c33},
	}
	for ii := 0; ii < mh; ii++ {
		row := c[(i0+ii)*ldc+j0:]
		for jj := 0; jj < nw; jj++ {
			row[jj] = acc[ii][jj]
		}
	}
}

// micro8x8 is the 8x8 microkernel used for problems with full-width tiles:
// the accumulator block lives in a stack-resident [8][8] array (the
// compiler cannot keep 64 floats in registers, but the array stays hot in
// L1 and store-forwards), while the 8 B values of each k step are loaded
// once into locals and amortized over 8 unrolled rows — 16 loads per 64
// multiply-adds, twice the arithmetic density of micro4x4. Accumulation
// chains are per-element ascending-k exactly as micro4x4's, so tile-size
// choice never changes results.
func micro8x8(pa, pb []float32, kb int, c []float32, ldc, i0, j0, mh, nw int, accum bool) {
	var acc [gemmMR8][gemmNR8]float32
	if accum {
		for ii := 0; ii < mh; ii++ {
			row := c[(i0+ii)*ldc+j0:]
			for jj := 0; jj < nw; jj++ {
				acc[ii][jj] = row[jj]
			}
		}
	}
	for p := 0; p < kb; p++ {
		bv := pb[p*gemmNR8 : p*gemmNR8+gemmNR8 : p*gemmNR8+gemmNR8]
		av := pa[p*gemmMR8 : p*gemmMR8+gemmMR8 : p*gemmMR8+gemmMR8]
		b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
		b4, b5, b6, b7 := bv[4], bv[5], bv[6], bv[7]
		for ii := 0; ii < gemmMR8; ii++ {
			ai := av[ii]
			r := &acc[ii]
			r[0] += ai * b0
			r[1] += ai * b1
			r[2] += ai * b2
			r[3] += ai * b3
			r[4] += ai * b4
			r[5] += ai * b5
			r[6] += ai * b6
			r[7] += ai * b7
		}
	}
	for ii := 0; ii < mh; ii++ {
		row := c[(i0+ii)*ldc+j0:]
		for jj := 0; jj < nw; jj++ {
			row[jj] = acc[ii][jj]
		}
	}
}

// DenseGemmIntoPar computes the dense layer dst = in·Wᵀ + bias with the
// packed microkernel GEMM, packing W's micro-panels straight from its
// row-major layout (no transpose materialization). Per element the product
// order and accumulation chain equal DenseIntoPar's dot products, so this is
// bit-identical to the tensor-dense family's kernels. One shard packs and
// consumes one k panel at a time from shard 0's scratch; more shards split
// mr-aligned batch-row blocks over W panels staged once, all up front, in
// shard 0's scratch — the same chains either way, so results are
// bit-identical for any shard count.
func DenseGemmIntoPar(dst, in, w, bias *Tensor, par *Par) {
	nb, k := in.Dim(0), in.Dim(1)
	m := w.Dim(0)
	checkDense(dst, in, w, bias, nb, k, m)
	metrics.Count(metrics.KernelGEMM)
	if nb == 0 || m == 0 {
		return
	}
	a, wd, c := in.Data(), w.Data(), dst.Data()
	mr, nr := gemmTiles(nb, m)
	kc := min(k, gemmKC)
	nt := (m + nr - 1) / nr
	s0 := par.Scratch(0)
	mark := s0.Mark()
	if !par.Parallel() {
		pb := s0.Take(nt * kc * nr)
		pa := s0.Take(kc * mr)
		for p0 := 0; p0 < k || p0 == 0; p0 += kc {
			kb := min(kc, k-p0)
			if p0 > 0 && kb <= 0 {
				break
			}
			packBT(pb, wd, m, k, p0, kb, kc, nr)
			gemmRowRange(a, c, pa, pb, nb, k, m, p0, kb, kc, 0, nb, mr, nr)
		}
		s0.Release(mark)
		addBiasRows(dst, bias, nb, m)
		return
	}
	panels := (k + kc - 1) / kc
	pbAll := s0.Take(panels * nt * kc * nr)
	for pi := 0; pi < panels; pi++ {
		p0 := pi * kc
		packBT(pbAll[pi*nt*kc*nr:(pi+1)*nt*kc*nr], wd, m, k, p0, min(kc, k-p0), kc, nr)
	}
	par.ForBlocks(nb, mr, func(shard, lo, hi int) {
		s := par.Scratch(shard)
		smark := s.Mark()
		pa := s.Take(kc * mr)
		for pi := 0; pi < panels; pi++ {
			p0 := pi * kc
			gemmRowRange(a, c, pa, pbAll[pi*nt*kc*nr:(pi+1)*nt*kc*nr],
				nb, k, m, p0, min(kc, k-p0), kc, lo, hi, mr, nr)
		}
		s.Release(smark)
	})
	s0.Release(mark)
	addBiasRows(dst, bias, nb, m)
}

// Conv2DIm2colBlocked is Conv2DIm2col with the packed microkernel GEMM in
// place of the cache-blocked one. GemmBlocked is bit-identical to Gemm, so
// this stays in the tensor-im2col conformance family.
func Conv2DIm2colBlocked(in, weight, bias *Tensor, spec ConvSpec, s *Scratch) *Tensor {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	oh, ow := spec.OutDims(h, w)
	icg := spec.InC / spec.Groups
	ocg := spec.OutC / spec.Groups
	out := New(n, spec.OutC, oh, ow)
	wd, od := weight.Data(), out.Data()
	cbuf := make([]float32, ocg*oh*ow)
	for b := 0; b < n; b++ {
		for g := 0; g < spec.Groups; g++ {
			col := Im2colGroup(in, b, g, spec)
			wmat := wd[g*ocg*icg*spec.KH*spec.KW : (g+1)*ocg*icg*spec.KH*spec.KW]
			GemmBlocked(wmat, col.Data(), cbuf, ocg, icg*spec.KH*spec.KW, oh*ow, s)
			for oc := 0; oc < ocg; oc++ {
				dst := od[((b*spec.OutC+g*ocg+oc)*oh)*ow:]
				src := cbuf[oc*oh*ow : (oc+1)*oh*ow]
				var bv float32
				if bias != nil {
					bv = bias.Data()[g*ocg+oc]
				}
				for i, v := range src {
					dst[i] = v + bv
				}
			}
		}
	}
	return out
}

// checkDense validates the dense-layer operand shapes shared by the GEMM
// dense paths.
func checkDense(dst, in, w, bias *Tensor, nb, k, m int) {
	if w.Dim(1) != k {
		panic(fmt.Sprintf("tensor: dense weight %v does not match input width %d", w.Shape(), k))
	}
	if dst.NumElements() != nb*m {
		panic(fmt.Sprintf("tensor: dense dst %v != [%d %d]", dst.Shape(), nb, m))
	}
	if bias != nil && bias.NumElements() != m {
		panic(fmt.Sprintf("tensor: dense bias %v != [%d]", bias.Shape(), m))
	}
}

// addBiasRows adds the per-output bias to every row of the [nb, m] result.
func addBiasRows(dst, bias *Tensor, nb, m int) {
	if bias == nil {
		return
	}
	bd, od := bias.Data(), dst.Data()
	for r := 0; r < nb; r++ {
		row := od[r*m : r*m+m]
		for i, bv := range bd {
			row[i] += bv
		}
	}
}
