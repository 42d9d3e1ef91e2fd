package accel

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ipe"
	"repro/internal/quant"
	"repro/internal/tensor"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := Default()
	bad.PEs = 0
	if bad.Validate() == nil {
		t.Fatal("0 PEs must be rejected")
	}
	bad = Default()
	bad.DRAMBandwidthGBs = -1
	if bad.Validate() == nil {
		t.Fatal("negative bandwidth must be rejected")
	}
	bad = Default()
	bad.EnergyMulPJ = -1
	if bad.Validate() == nil {
		t.Fatal("negative energy must be rejected")
	}
}

func TestSimulateComputeBound(t *testing.T) {
	c := Default()
	// Tiny traffic, lots of ops → compute bound.
	p := KernelProfile{Adds: 1 << 20, Muls: 1 << 20, DRAMBytes: 64}
	r := c.Simulate(p)
	if r.Cycles != r.ComputeCycles {
		t.Fatalf("should be compute bound: %+v", r)
	}
	want := (int64(2<<20) + int64(c.PEs) - 1) / int64(c.PEs)
	if r.ComputeCycles != want {
		t.Fatalf("compute cycles = %d, want %d", r.ComputeCycles, want)
	}
}

func TestSimulateMemoryBound(t *testing.T) {
	c := Default()
	// Huge traffic, few ops → bandwidth bound.
	p := KernelProfile{Adds: 10, DRAMBytes: 1 << 26}
	r := c.Simulate(p)
	if r.Cycles != r.MemCycles {
		t.Fatalf("should be memory bound: %+v", r)
	}
	if r.Cycles <= r.ComputeCycles {
		t.Fatal("memory-bound kernel should exceed its compute time")
	}
}

func TestSimulateLowerBoundsProperty(t *testing.T) {
	// Cycles >= both roofline components, energy strictly positive for
	// non-empty kernels.
	f := func(adds, muls, bytes uint32) bool {
		c := Default()
		p := KernelProfile{
			Adds: int64(adds % 1e6), Muls: int64(muls % 1e6),
			DRAMBytes: int64(bytes % 1e7), SRAMAccesses: int64(adds % 1e5),
		}
		r := c.Simulate(p)
		if r.Cycles < r.ComputeCycles || r.Cycles < r.MemCycles {
			return false
		}
		if p.Ops() > 0 && r.EnergyPJ <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRefetchChargedWhenWorkingSetOverflows(t *testing.T) {
	c := Default()
	p := KernelProfile{Adds: 100, DRAMBytes: 1 << 20, WorkingSetBytes: 3 * c.SRAMBytes}
	r := c.Simulate(p)
	if r.DRAMBytes != 3*p.DRAMBytes {
		t.Fatalf("refetch factor 3 expected: charged %d for base %d", r.DRAMBytes, p.DRAMBytes)
	}
	small := KernelProfile{Adds: 100, DRAMBytes: 1 << 20, WorkingSetBytes: c.SRAMBytes}
	if c.Simulate(small).DRAMBytes != small.DRAMBytes {
		t.Fatal("fitting working set must not be charged refetch")
	}
}

func TestEnergyAdditive(t *testing.T) {
	c := Default()
	p1 := KernelProfile{Adds: 1000, Muls: 500, SRAMAccesses: 2000, DRAMBytes: 4096}
	p2 := KernelProfile{Adds: 300, Muls: 700, SRAMAccesses: 900, DRAMBytes: 1024}
	var sum KernelProfile
	sum.Accumulate(p1)
	sum.Accumulate(p2)
	got := c.Simulate(sum).EnergyPJ
	want := c.Simulate(p1).EnergyPJ + c.Simulate(p2).EnergyPJ
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("energy not additive: %v vs %v", got, want)
	}
}

// evenTiles spreads p's ops and DRAM traffic evenly over n pipeline tiles;
// n must divide every total.
func evenTiles(p KernelProfile, n int) []Tile {
	tiles := make([]Tile, n)
	for i := range tiles {
		tiles[i] = Tile{
			LoadBytes:    p.DRAMBytes / int64(2*n),
			StoreBytes:   p.DRAMBytes / int64(2*n),
			Adds:         p.Adds / int64(n),
			Muls:         p.Muls / int64(n),
			SRAMAccesses: p.SRAMAccesses / int64(n),
		}
	}
	return tiles
}

func TestSimulateTilesCoversAllWork(t *testing.T) {
	// Spread over tiles, a profile's ops and DRAM traffic must all reach the
	// result: the same traffic, energy and compute cycles as the roofline.
	c := Default()
	p := KernelProfile{Adds: 1 << 18, Muls: 1 << 18, SRAMAccesses: 1 << 19, DRAMBytes: 1 << 22}
	r := c.SimulateTiles("k", evenTiles(p, 16))
	ideal := c.Simulate(p)
	if r.DRAMBytes != p.DRAMBytes {
		t.Fatalf("tiles lost traffic: %d vs %d", r.DRAMBytes, p.DRAMBytes)
	}
	if r.EnergyPJ != ideal.EnergyPJ || r.ComputeCycles != ideal.ComputeCycles {
		t.Fatalf("tiles lost ops: energy %v / compute %d vs %v / %d",
			r.EnergyPJ, r.ComputeCycles, ideal.EnergyPJ, ideal.ComputeCycles)
	}
	if r.Cycles <= 0 {
		t.Fatal("tile simulation produced no cycles")
	}
}

func TestSimulateTilesAtLeastRoofline(t *testing.T) {
	// The event simulation can only be slower than the ideal roofline
	// compute bound.
	c := Default()
	p := KernelProfile{Adds: 1 << 20, Muls: 1 << 20, DRAMBytes: 1 << 24}
	tiles := evenTiles(p, 32)
	r := c.SimulateTiles("k", tiles)
	ideal := c.Simulate(p)
	if r.Cycles < ideal.ComputeCycles {
		t.Fatalf("tile sim %d cycles beat the compute roofline %d", r.Cycles, ideal.ComputeCycles)
	}
}

func TestSimulateTilesEmptyIsZero(t *testing.T) {
	if r := Default().SimulateTiles("k", nil); r.Cycles != 0 {
		t.Fatalf("empty tile list should take 0 cycles, got %d", r.Cycles)
	}
}

func TestSimulateTilesStallsWhenBandwidthStarved(t *testing.T) {
	c := Default()
	c.DRAMBandwidthGBs = 0.1 // starve the pipeline
	tiles := make([]Tile, 8)
	for i := range tiles {
		tiles[i] = Tile{LoadBytes: 1 << 20, Adds: 100}
	}
	r := c.SimulateTiles("k", tiles)
	if r.StallCycles == 0 {
		t.Fatal("bandwidth-starved pipeline must stall")
	}
}

func TestMicroseconds(t *testing.T) {
	c := Default() // 1 GHz → 1000 cycles per microsecond
	r := Result{Cycles: 5000}
	if got := r.Microseconds(c); got != 5 {
		t.Fatalf("Microseconds = %v, want 5", got)
	}
}

func TestResultAccumulate(t *testing.T) {
	a := Result{Cycles: 10, ComputeCycles: 8, MemCycles: 2, EnergyPJ: 5, DRAMBytes: 100}
	b := Result{Cycles: 20, ComputeCycles: 15, MemCycles: 5, EnergyPJ: 7, DRAMBytes: 200}
	a.Accumulate(b)
	if a.Cycles != 30 || a.EnergyPJ != 12 || a.DRAMBytes != 300 {
		t.Fatalf("Accumulate = %+v", a)
	}
}

func TestSymbolBytes(t *testing.T) {
	if symbolBytes(100) != 2 || symbolBytes(1<<16) != 2 || symbolBytes(1<<16+1) != 4 {
		t.Fatal("symbolBytes thresholds wrong")
	}
}

// buildIPELayer makes a small encoded conv layer for profile tests.
func buildIPELayer(t *testing.T, bits int) (*ipe.ConvLayer, tensor.ConvSpec) {
	t.Helper()
	r := tensor.NewRNG(50)
	spec := tensor.ConvSpec{InC: 8, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.2)
	layer, _, err := ipe.EncodeConv(w, nil, spec, bits, quant.PerTensor, ipe.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return layer, spec
}

func TestIPEProfileBeatsDenseAtLowBits(t *testing.T) {
	layer, spec := buildIPELayer(t, 2)
	c := Default()
	dense := c.Simulate(DenseConvProfile(spec, 1, 16, 16))
	ipeRes := c.Simulate(IPEConvProfile(layer, 1, 16, 16))
	if ipeRes.Cycles >= dense.Cycles {
		t.Fatalf("2-bit IPE (%d cycles) should beat dense (%d cycles)", ipeRes.Cycles, dense.Cycles)
	}
	if ipeRes.EnergyPJ >= dense.EnergyPJ {
		t.Fatalf("2-bit IPE energy (%v) should beat dense (%v)", ipeRes.EnergyPJ, dense.EnergyPJ)
	}
}

func TestProfilesHaveConsistentOutputTraffic(t *testing.T) {
	spec := tensor.ConvSpec{InC: 4, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	dense := DenseConvProfile(spec, 1, 8, 8)
	sparse := SparseConvProfile(spec, 1, 8, 8, 100)
	// Both include input (4*8*8) + output (8*8*8) words of activation
	// traffic; dense adds the 8*4*9 weight words.
	actBytes := int64(4*8*8+8*8*8) * 4
	if dense.DRAMBytes != actBytes+int64(8*4*9*4) {
		t.Fatalf("dense DRAM = %d", dense.DRAMBytes)
	}
	if sparse.DRAMBytes != actBytes+100*6 {
		t.Fatalf("sparse DRAM = %d", sparse.DRAMBytes)
	}
}

func TestDenseProfileMatchesSpecMACs(t *testing.T) {
	spec := tensor.ConvSpec{InC: 16, OutC: 32, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	p := DenseConvProfile(spec, 2, 32, 32)
	if p.Adds != spec.MACs(2, 32, 32) || p.Muls != p.Adds {
		t.Fatalf("profile MACs mismatch: %+v vs %d", p, spec.MACs(2, 32, 32))
	}
}

func TestSimulateGatherConflictFree(t *testing.T) {
	// Addresses hitting distinct banks per wave: no serialization.
	addrs := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	st := SimulateGather(addrs, 4, 8)
	if st.Waves != 2 || st.Cycles != 2 || st.Conflicts != 0 {
		t.Fatalf("conflict-free stream got %+v", st)
	}
	if st.ConflictFactor() != 1 {
		t.Fatalf("factor = %v", st.ConflictFactor())
	}
}

func TestSimulateGatherWorstCase(t *testing.T) {
	// All lanes hit bank 0: full serialization.
	addrs := []int32{0, 8, 16, 24}
	st := SimulateGather(addrs, 4, 8)
	if st.Waves != 1 || st.Cycles != 4 || st.Conflicts != 3 {
		t.Fatalf("same-bank stream got %+v", st)
	}
}

func TestSimulateGatherEmpty(t *testing.T) {
	st := SimulateGather(nil, 8, 8)
	if st.Waves != 0 || st.ConflictFactor() != 1 {
		t.Fatalf("empty stream got %+v", st)
	}
}

func TestPairAddressStream(t *testing.T) {
	pairs := []ipe.Pair{{A: 1, B: 2}, {A: 3, B: 4}}
	addrs := PairAddressStream(pairs)
	want := []int32{1, 2, 3, 4}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatalf("stream = %v", addrs)
		}
	}
}

func TestIPEGatherConflictsReasonable(t *testing.T) {
	// A real encoded layer's pair stream against a 32-bank scratchpad
	// should serialize far less than the worst case (lanes/banks ratio).
	layer, _ := buildIPELayer(t, 4)
	var pairs []ipe.Pair
	for _, p := range layer.Programs {
		pairs = append(pairs, p.Pairs...)
	}
	if len(pairs) == 0 {
		t.Skip("no dictionary on this layer")
	}
	st := SimulateGather(PairAddressStream(pairs), 32, 32)
	if f := st.ConflictFactor(); f > 8 {
		t.Fatalf("conflict factor %v absurdly high", f)
	}
}

func TestSimulateTilesTraceMatchesUntraced(t *testing.T) {
	c := Default()
	p := KernelProfile{Adds: 1 << 18, Muls: 1 << 18, DRAMBytes: 1 << 22, SRAMAccesses: 1 << 19}
	tiles := evenTiles(p, 64)
	plain := c.SimulateTiles("k", tiles)
	traced, traces := c.SimulateTilesTrace("k", tiles, 16)
	if plain.Cycles != traced.Cycles || plain.EnergyPJ != traced.EnergyPJ ||
		plain.StallCycles != traced.StallCycles {
		t.Fatalf("traced sim diverges: %+v vs %+v", traced, plain)
	}
	if len(traces) != 16 {
		t.Fatalf("trace cap not honored: %d", len(traces))
	}
	for i, tr := range traces {
		if tr.ComputeStart < tr.LoadEnd || tr.ComputeEnd < tr.ComputeStart {
			t.Fatalf("tile %d has inconsistent timing: %+v", i, tr)
		}
	}
}

func TestPrintTimeline(t *testing.T) {
	c := Default()
	p := KernelProfile{Adds: 1 << 16, DRAMBytes: 1 << 20}
	_, traces := c.SimulateTilesTrace("k", evenTiles(p, 8), 8)
	var buf strings.Builder
	PrintTimeline(&buf, traces, 60)
	out := buf.String()
	if !strings.Contains(out, "pipeline timeline") || !strings.Contains(out, "█") {
		t.Fatalf("timeline output malformed:\n%s", out)
	}
	var empty strings.Builder
	PrintTimeline(&empty, nil, 60)
	if !strings.Contains(empty.String(), "no tiles") {
		t.Fatal("empty trace should say so")
	}
}

func TestFactorizedAndWinogradProfiles(t *testing.T) {
	spec := tensor.ConvSpec{InC: 8, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, tensor.NewRNG(3), 1)
	fl, err := ipe.FactorizeConv(quant.Quantize(w, 4, quant.PerTensor), nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	fc := fl.Programs[0].Cost()
	fp := FactorizedConvProfile(spec, 1, 8, 8, fl.PixelCost())
	if fp.Adds != fc.Adds*64 || fp.Muls != fc.Muls*64 {
		t.Fatalf("factorized profile ops wrong: %+v for per-pixel %+v", fp, fc)
	}
	if want := fc.StreamSymbols*2 + fc.Muls*6; fp.StationaryBytes != want {
		t.Fatalf("factorized stream bytes %d, want %d (2-byte symbols, 6-byte headers)", fp.StationaryBytes, want)
	}
	if fp.StationaryBytes == 0 || fp.DRAMBytes <= fp.StationaryBytes {
		t.Fatalf("factorized profile traffic wrong: %+v", fp)
	}
	wc := ipe.Cost{Adds: 10000, Muls: 4096}
	wp := WinogradConvProfile(spec, 1, 8, 8, wc)
	if wp.Muls != 4096 || wp.StationaryBytes != int64(8*8*16*4) {
		t.Fatalf("winograd profile wrong: %+v", wp)
	}
}

// TestCountsMatchBuiltPrograms: the runtime ranks the factorized and CSR
// candidates from ipe.CountCodes without building them. Over random
// quantized weights (grouped and ungrouped convs and fully connected
// matrices, 2, 4 and 8 bits, per-channel and per-tensor, all-zero rows and
// an all-zero group), the counts must give the same factorized profile and
// cost as the programs FactorizeConv and Factorize build, and the same CSR
// term count as Sparse.
func TestCountsMatchBuiltPrograms(t *testing.T) {
	csrTerms := func(progs ...*ipe.Program) int64 {
		var n int64
		for _, p := range progs {
			n += p.Cost().Muls
		}
		return n
	}
	for seed := uint64(1); seed <= 72; seed++ {
		r := tensor.NewRNG(seed)
		bits := []int{2, 4, 8}[seed%3]
		scheme := []quant.Scheme{quant.PerChannel, quant.PerTensor}[seed/3%2]
		groups := []int{1, 2, 4}[seed/6%3]
		k := 1 + 2*(r.Intn(2)) // 1x1 or 3x3
		spec := tensor.ConvSpec{
			InC: groups * (1 + r.Intn(4)), OutC: groups * (1 + r.Intn(5)),
			KH: k, KW: k, StrideH: 1, StrideW: 1, PadH: k / 2, PadW: k / 2, Groups: groups,
		}
		w := tensor.New(spec.WeightShape()...)
		tensor.FillGaussian(w, r, 1)
		quant.PruneMagnitude(w, r.Float64()*0.8)
		d, rowLen := w.Data(), w.NumElements()/spec.OutC
		clear(d[r.Intn(spec.OutC)*rowLen:][:rowLen]) // an all-zero row
		if groups > 1 {
			ocg := spec.OutC / groups
			g := r.Intn(groups)
			clear(d[g*ocg*rowLen : (g+1)*ocg*rowLen]) // an all-zero group
		}
		q := quant.Quantize(w, bits, scheme)
		name := fmt.Sprintf("seed %d: %d-bit %v, %+v", seed, bits, scheme, spec)
		counts := ipe.CountCodes(q)

		fl, err := ipe.FactorizeConv(q, nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := counts.Factorized(), fl.PixelCost(); got != want {
			t.Fatalf("%s: conv factorized cost from counts %+v, built %+v", name, got, want)
		}
		h := 2 + r.Intn(7)
		if got, want := FactorizedConvProfile(spec, 2, h, h, counts.Factorized()), FactorizedConvProfile(spec, 2, h, h, fl.PixelCost()); got != want {
			t.Fatalf("%s: conv factorized profile from counts %+v, built %+v", name, got, want)
		}
		sl, err := ipe.SparseConv(q, nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := counts.CSR, csrTerms(sl.Programs...); got != want {
			t.Fatalf("%s: conv CSR count %d, SparseConv built %d terms", name, got, want)
		}

		// The same codes as a fully connected [OutC, InC·KH·KW] matrix.
		fc := *q
		fc.Shape = tensor.Shape{spec.OutC, rowLen}
		if got, want := ipe.CountCodes(&fc).Factorized(), ipe.Factorize(&fc).Cost(); got != want {
			t.Fatalf("%s: FC factorized cost from counts %+v, built %+v", name, got, want)
		}
		if got, want := ipe.CountCodes(&fc).CSR, csrTerms(ipe.Sparse(&fc)); got != want {
			t.Fatalf("%s: FC CSR count %d, Sparse built %d terms", name, got, want)
		}
	}
}

func TestCeilDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ceilDiv(1, 0)
}
