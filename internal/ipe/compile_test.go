package ipe

import (
	"math"
	"strings"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// fillDepth recomputes the Depth table of a hand-built program so it
// passes Validate.
func fillDepth(p *Program) {
	p.Depth = make([]int32, len(p.Pairs))
	d := func(s int32) int32 {
		if int(s) < p.K {
			return 0
		}
		return p.Depth[int(s)-p.K]
	}
	for j, pr := range p.Pairs {
		p.Depth[j] = max(d(pr.A), d(pr.B)) + 1
	}
}

// assertCompiledMatches runs the interpreted and compiled executors on the
// same deterministic inputs and requires bitwise-identical float results
// and exactly equal integer results, over the vector, matrix (at block
// boundary and ragged column counts), and integer paths.
func assertCompiledMatches(t *testing.T, p *Program) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("program invalid: %v", err)
	}
	c := p.Compiled()
	if c.ScratchLen() > p.NumSymbols() {
		t.Fatalf("compiled scratch %d exceeds interpreter footprint %d", c.ScratchLen(), p.NumSymbols())
	}

	r := tensor.NewRNG(42)
	x := make([]float32, p.K)
	for i := range x {
		x[i] = r.Float32() - 0.5
	}
	want := make([]float32, p.M)
	got := make([]float32, p.M)
	p.Execute(x, want)
	c.Execute(x, got)
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("vector element %d: interpreted %v != compiled %v", i, want[i], got[i])
		}
	}

	xi := make([]int32, p.K)
	for i := range xi {
		xi[i] = int32(r.Float32()*16) - 8
	}
	wantI := make([]int64, p.M)
	gotI := make([]int64, p.M)
	p.ExecuteInt(xi, wantI)
	c.ExecuteInt(xi, gotI)
	for i := range wantI {
		if wantI[i] != gotI[i] {
			t.Fatalf("int element %d: interpreted %d != compiled %d", i, wantI[i], gotI[i])
		}
	}

	for _, pTotal := range []int{1, colBlock, colBlock + 5} {
		cols := make([]float32, p.K*pTotal)
		for i := range cols {
			cols[i] = r.Float32() - 0.5
		}
		wantM := make([]float32, p.M*pTotal)
		gotM := make([]float32, p.M*pTotal)
		var s tensor.Scratch
		p.ExecuteMatrixInto(wantM, cols, pTotal, &s)
		c.ExecuteMatrixIntoPar(gotM, cols, pTotal, tensor.NewPar(nil, 1))
		for i := range wantM {
			if math.Float32bits(wantM[i]) != math.Float32bits(gotM[i]) {
				t.Fatalf("matrix P=%d element %d: interpreted %v != compiled %v", pTotal, i, wantM[i], gotM[i])
			}
		}
	}
}

// TestCompiledEmptyDictionary: a program with no pairs compiles to an
// empty pair stream and zero slots; the emit stream alone must reproduce
// the interpreter.
func TestCompiledEmptyDictionary(t *testing.T) {
	p := &Program{
		K: 6, M: 2, Bits: 4,
		Rows: []Row{
			{Terms: []Term{{Code: 3, Value: 0.75, Syms: []int32{0, 2, 4}}}},
			{Terms: []Term{{Code: -2, Value: -0.5, Syms: []int32{1, 3, 5}}, {Code: 1, Value: 0.25, Syms: []int32{0}}}},
		},
	}
	fillDepth(p)
	c := p.Compiled()
	if c.NumSlots != 0 || c.LivePairs != 0 || c.DeadPairs != 0 {
		t.Fatalf("empty dictionary compiled to %d slots, %d live, %d dead", c.NumSlots, c.LivePairs, c.DeadPairs)
	}
	if c.ScratchLen() != p.K {
		t.Fatalf("scratch length %d != K %d", c.ScratchLen(), p.K)
	}
	assertCompiledMatches(t, p)
}

// TestCompiledZeroTermRows: rows without terms are legal (an all-zero
// weight row encodes to nothing) and must produce exactly 0 on every path.
func TestCompiledZeroTermRows(t *testing.T) {
	p := &Program{
		K: 4, M: 3, Bits: 4,
		Pairs: []Pair{{A: 0, B: 1}},
		Rows: []Row{
			{}, // no terms at all
			{Terms: []Term{{Code: 2, Value: 1.5, Syms: []int32{4, 2}}}},
			{},
		},
	}
	fillDepth(p)
	assertCompiledMatches(t, p)
	y := make([]float32, p.M)
	p.Compiled().Execute([]float32{1, 2, 3, 4}, y)
	if y[0] != 0 || y[2] != 0 {
		t.Fatalf("zero-term rows produced %v", y)
	}
}

// TestCompiledSingleSymbolTerms: terms with one symbol exercise the
// smallest emit groups (the compiled path must still zero-init the group
// accumulator to stay bit-identical, e.g. for signed zeros).
func TestCompiledSingleSymbolTerms(t *testing.T) {
	p := &Program{
		K: 5, M: 2, Bits: 4,
		Pairs: []Pair{{A: 1, B: 3}},
		Rows: []Row{
			{Terms: []Term{{Code: 1, Value: 0.5, Syms: []int32{5}}, {Code: -1, Value: -0.5, Syms: []int32{0}}}},
			{Terms: []Term{{Code: 7, Value: 1.75, Syms: []int32{4}}}},
		},
	}
	fillDepth(p)
	assertCompiledMatches(t, p)
}

// TestCompiledDeadEntryElimination: dictionary entries no emit term
// reaches are dropped from the pair stream without changing results, and
// slot compaction keeps the scratchpad at the live width.
func TestCompiledDeadEntryElimination(t *testing.T) {
	p := &Program{
		K: 6, M: 1, Bits: 4,
		Pairs: []Pair{
			{A: 0, B: 1}, // 6: live (read by row)
			{A: 2, B: 3}, // 7: dead
			{A: 7, B: 4}, // 8: dead (reads a dead entry)
			{A: 6, B: 5}, // 9: live chain through 6
		},
		Rows: []Row{
			{Terms: []Term{{Code: 2, Value: 1, Syms: []int32{9, 6}}}},
		},
	}
	fillDepth(p)
	c := p.Compiled()
	if c.LivePairs != 2 || c.DeadPairs != 2 {
		t.Fatalf("expected 2 live / 2 dead pairs, got %d / %d", c.LivePairs, c.DeadPairs)
	}
	if c.NumSlots != 2 {
		t.Fatalf("expected 2 slots for 2 live row-read entries, got %d", c.NumSlots)
	}
	assertCompiledMatches(t, p)
}

// TestCompiledSlotReuse: a long chain where every entry is consumed only
// by the next pair must compact to far fewer slots than entries.
func TestCompiledSlotReuse(t *testing.T) {
	const k, links = 8, 12
	p := &Program{K: k, M: 1, Bits: 4}
	// Chain: e0 = x0+x1, e_i = e_{i-1} + x_{(i+1)%k}; only the last entry
	// is emitted, so every intermediate dies at its single pair read.
	p.Pairs = append(p.Pairs, Pair{A: 0, B: 1})
	for i := 1; i < links; i++ {
		p.Pairs = append(p.Pairs, Pair{A: int32(k + i - 1), B: int32((i + 1) % k)})
	}
	p.Rows = []Row{{Terms: []Term{{Code: 1, Value: 1, Syms: []int32{int32(k + links - 1)}}}}}
	fillDepth(p)
	c := p.Compiled()
	if c.NumSlots > 2 {
		t.Fatalf("chain program should need ≤2 slots, got %d (of %d entries)", c.NumSlots, links)
	}
	assertCompiledMatches(t, p)
}

// boundaryProgram builds a validating program whose symbol count is
// exactly total: K = total - pairs raw inputs plus a small dictionary.
func boundaryProgram(total, pairs int) *Program {
	k := total - pairs
	p := &Program{K: k, M: 2, Bits: 4}
	for j := 0; j < pairs; j++ {
		p.Pairs = append(p.Pairs, Pair{A: int32(2 * j), B: int32(2*j + 1)})
	}
	last := int32(k + pairs - 1) // highest symbol id
	p.Rows = []Row{
		{Terms: []Term{{Code: 1, Value: 0.5, Syms: []int32{last, 0}}}},
		{Terms: []Term{{Code: -3, Value: -1.5, Syms: []int32{int32(k), int32(k - 1)}}}},
	}
	fillDepth(p)
	return p
}

// TestCompiledSymbolWidthBoundary: programs at the 2-byte/4-byte symbol
// width boundary of the wire format must survive a serialize round trip
// and compile (from the freshly unmarshaled value, whose cache starts
// cold) to bit-identical results.
func TestCompiledSymbolWidthBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 64k-symbol programs")
	}
	for _, tc := range []struct {
		total, wantW int
	}{
		{1 << 16, 2},     // largest 2-byte program
		{1<<16 + 1, 4},   // smallest 4-byte program
		{1<<16 - 255, 2}, // comfortably inside 2-byte
	} {
		p := boundaryProgram(tc.total, 4)
		if got := p.symbolWidth(); got != tc.wantW {
			t.Fatalf("total %d: symbol width %d, want %d", tc.total, got, tc.wantW)
		}
		data, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("total %d: marshal: %v", tc.total, err)
		}
		var rt Program
		if err := rt.UnmarshalBinary(data); err != nil {
			t.Fatalf("total %d: unmarshal: %v", tc.total, err)
		}
		if rt.NumSymbols() != tc.total {
			t.Fatalf("total %d: round trip changed symbol count to %d", tc.total, rt.NumSymbols())
		}
		assertCompiledMatches(t, &rt)
	}
}

// TestCompileRejectsMalformed: the SSE2 kernels index without bounds
// checks, so lowering must refuse every program whose streams could leave
// the scratchpad — at Compiled(), not later inside execution.
func TestCompileRejectsMalformed(t *testing.T) {
	valid := func() *Program {
		return &Program{
			K: 3, M: 2,
			Pairs: []Pair{{A: 0, B: 1}, {A: 3, B: 2}},
			Rows: []Row{
				{Terms: []Term{{Value: 1, Code: 1, Syms: []int32{4}}}},
				{Terms: []Term{{Value: 2, Code: 2, Syms: []int32{3, 2}}}},
			},
		}
	}
	cases := []struct {
		name, want string
		corrupt    func(p *Program)
	}{
		{"rows short of M", "row count", func(p *Program) { p.M = 3 }},
		{"rows beyond M", "row count", func(p *Program) { p.M = 1 }},
		{"negative row symbol", "symbol -1", func(p *Program) { p.Rows[0].Terms[0].Syms[0] = -1 }},
		{"row symbol past the dictionary", "symbol 5", func(p *Program) { p.Rows[1].Terms[0].Syms[1] = 5 }},
		{"negative pair operand", "pair 0", func(p *Program) { p.Pairs[0].B = -2 }},
		{"pair reads itself", "pair 1", func(p *Program) { p.Pairs[1].A = 4 }},
		{"pair reads a later entry", "pair 0", func(p *Program) { p.Pairs[0].A = 4 }},
	}
	valid().Compiled() // the unbroken program lowers
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := valid()
			tc.corrupt(p)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("Compiled() panic %q, want one naming %q", msg, tc.want)
				}
			}()
			p.Compiled()
		})
	}
}

// TestCompiledCache: Compiled() memoizes per program value, and
// deserializing over a program drops the stale lowering.
func TestCompiledCache(t *testing.T) {
	w := tensor.New(16, 32)
	tensor.FillGaussian(w, tensor.NewRNG(3), 1)
	q := quant.Quantize(w, 4, quant.PerTensor)
	p, _, err := Encode(q, Config{MaxDict: 64, MaxDepth: 4, TileSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	c1 := p.Compiled()
	if c2 := p.Compiled(); c1 != c2 {
		t.Fatal("Compiled() did not memoize")
	}
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if c3 := p.Compiled(); c3 == c1 {
		t.Fatal("UnmarshalBinary kept a stale compiled cache")
	}
	assertCompiledMatches(t, p)
}

// TestCompiledEncodedPrograms sweeps real encoder outputs (both policies,
// with and without tiling) through the bit-identity assertion, and checks
// that slot compaction actually shrinks the scratchpad on a typical layer.
func TestCompiledEncodedPrograms(t *testing.T) {
	r := tensor.NewRNG(9)
	for _, cfg := range []Config{
		DefaultConfig(),
		{MaxDict: 128, MaxDepth: 3, TileSize: 32},
		{Policy: PolicyGreedy, MaxDict: 64, MaxDepth: 8, TileSize: 0},
	} {
		w := tensor.New(24, 96)
		tensor.FillGaussian(w, r, 1)
		q := quant.Quantize(w, 4, quant.PerTensor)
		p, _, err := Encode(q, cfg)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		assertCompiledMatches(t, p)
		c := p.Compiled()
		if len(p.Pairs) > 0 && c.NumSlots > len(p.Pairs) {
			t.Fatalf("cfg %+v: %d slots for %d entries", cfg, c.NumSlots, len(p.Pairs))
		}
	}
}

func BenchmarkInterpretedMatrix(b *testing.B) { benchMatrix(b, false) }
func BenchmarkCompiledMatrix(b *testing.B)    { benchMatrix(b, true) }

func BenchmarkInterpretedVector(b *testing.B) { benchVector(b, false) }
func BenchmarkCompiledVector(b *testing.B)    { benchVector(b, true) }

// benchVector mirrors a LeNet-5 fc1-sized dense layer (120 rows of 400
// inputs), the single-column path the dense serving code takes.
func benchVector(b *testing.B, compiled bool) {
	w := tensor.New(120, 400)
	tensor.FillGaussian(w, tensor.NewRNG(7), 1)
	prog, _, err := Encode(quant.Quantize(w, 4, quant.PerTensor), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float32, prog.K)
	r := tensor.NewRNG(8)
	for i := range x {
		x[i] = r.Float32()
	}
	y := make([]float32, prog.M)
	c := prog.Compiled()
	interpScratch := make([]float32, prog.NumSymbols())
	compiledScratch := make([]float32, c.ScratchLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if compiled {
			c.ExecuteScratch(x, y, compiledScratch)
		} else {
			prog.ExecuteScratch(x, y, interpScratch)
		}
	}
}

func benchMatrix(b *testing.B, compiled bool) {
	w := tensor.New(64, 288)
	tensor.FillGaussian(w, tensor.NewRNG(5), 1)
	prog, _, err := Encode(quant.Quantize(w, 4, quant.PerTensor), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const pTotal = 256
	cols := make([]float32, prog.K*pTotal)
	r := tensor.NewRNG(6)
	for i := range cols {
		cols[i] = r.Float32()
	}
	dst := make([]float32, prog.M*pTotal)
	var s tensor.Scratch
	par := tensor.NewPar(nil, 1)
	c := prog.Compiled()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if compiled {
			c.ExecuteMatrixIntoPar(dst, cols, pTotal, par)
		} else {
			prog.ExecuteMatrixInto(dst, cols, pTotal, &s)
		}
	}
}
