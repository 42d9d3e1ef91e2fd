package ipe

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// specialFloats are the IEEE values the lane-wise bit-identity argument has
// to survive: signed zeros (a group sum starts at +0), NaNs with distinct
// payloads and signs, quiet and signalling (which operand is an
// instruction's destination decides the payload), infinities, subnormals
// and values that overflow when summed.
var specialFloats = []float32{
	0,
	float32(math.Copysign(0, -1)),
	math.Float32frombits(0x7fc00001),
	math.Float32frombits(0x7fc12345),
	math.Float32frombits(0xffc00abc),
	math.Float32frombits(0x7f800123), // signalling
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	math.Float32frombits(0x00000001),
	math.Float32frombits(0x807fffff),
	3e38,
	-3e38,
}

// matrixCase builds a program and a [K, pTotal] input from seed: the
// shape, bit width and encoder limits vary with the seed, about one program
// in five is each empty-dictionary form (Factorize; Sparse, whose rows
// repeat a code across single-symbol terms) and about one input in eight is
// drawn from specialFloats.
func matrixCase(seed uint64, pTotal int) (*Program, []float32) {
	r := tensor.NewRNG(seed)
	q := matrixQuant(r)
	var prog *Program
	switch dict := []int{-2, -1, 0, 8, 4096}[r.Intn(5)]; dict {
	case -2:
		prog = Sparse(q)
	case -1:
		prog = Factorize(q)
	default:
		var err error
		prog, _, err = Encode(q, Config{MaxDict: dict, MaxDepth: []int{0, 2, 8}[r.Intn(3)]})
		if err != nil {
			panic(err)
		}
	}
	return prog, lacedInputs(r, prog.K*pTotal)
}

// matrixQuant draws a per-channel quantized matrix of up to 24 rows, 2..61
// columns and 2..8 bits, pruned to half its weights one time in two.
func matrixQuant(r *tensor.RNG) *quant.Quantized {
	m, k := 1+r.Intn(24), 2+r.Intn(60)
	w := tensor.New(m, k)
	tensor.FillGaussian(w, r, 1)
	if r.Intn(2) == 0 {
		quant.PruneMagnitude(w, 0.5)
	}
	return quant.Quantize(w, 2+r.Intn(7), quant.PerChannel)
}

// lacedInputs returns n inputs in [-4, 4), about one in eight replaced by a
// specialFloats value.
func lacedInputs(r *tensor.RNG, n int) []float32 {
	cols := make([]float32, n)
	for i := range cols {
		if r.Intn(8) == 0 {
			cols[i] = specialFloats[r.Intn(len(specialFloats))]
		} else {
			cols[i] = r.Float32()*8 - 4
		}
	}
	return cols
}

// checkCompiledMatrix requires the compiled column-blocked executor on
// shards shards to equal the interpreter bit for bit, NaN payloads included
// where the kernels pin them (pinsNaNPayloads).
func checkCompiledMatrix(t *testing.T, prog *Program, cols []float32, pTotal, shards int) {
	t.Helper()
	want := make([]float32, prog.M*pTotal)
	var s tensor.Scratch
	prog.ExecuteMatrixInto(want, cols, pTotal, &s)
	got := make([]float32, prog.M*pTotal)
	prog.Compiled().ExecuteMatrixIntoPar(got, cols, pTotal, forcedPar(shards))
	checkBits(t, fmt.Sprintf("M=%d K=%d D=%d pTotal=%d shards=%d", prog.M, prog.K, prog.DictSize(), pTotal, shards),
		got, want, "interpreter", pinsNaNPayloads)
}

// checkBits requires got to equal want bit for bit; NaN payloads are
// compared too when pinNaN, and NaN must meet NaN everywhere.
func checkBits(t *testing.T, label string, got, want []float32, wantName string, pinNaN bool) {
	t.Helper()
	for i := range want {
		if bothNaN := got[i] != got[i] && want[i] != want[i]; bothNaN && !pinNaN {
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %#08x, %s %#08x", label, i, math.Float32bits(got[i]), wantName, math.Float32bits(want[i]))
		}
	}
}

// TestCompiledMatrixSweep walks every column count 1..130: whole 4-column
// chunks and every tail width, narrow and full blocks, and one to three
// blocks, including 4, 16 and 64 — the widths SqueezeNet serves.
func TestCompiledMatrixSweep(t *testing.T) {
	for pTotal := 1; pTotal <= 130; pTotal++ {
		prog, cols := matrixCase(uint64(pTotal), pTotal)
		checkCompiledMatrix(t, prog, cols, pTotal, 1+pTotal%3)
	}
}

// FuzzCompiledMatrix checks the compiled matrix executor against the
// interpreter over fuzzer-chosen programs, column counts 1..200 and 1..4
// shards, on inputs laced with special values.
func FuzzCompiledMatrix(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0))
	f.Add(uint64(2), uint8(63), uint8(1))
	f.Add(uint64(3), uint8(15), uint8(2))
	f.Add(uint64(4), uint8(129), uint8(3))
	f.Add(uint64(5), uint8(199), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, p, shards uint8) {
		pTotal := 1 + int(p)%200
		prog, cols := matrixCase(seed, pTotal)
		checkCompiledMatrix(t, prog, cols, pTotal, 1+int(shards)%4)
	})
}

// TestOneColumnNaNPayloads pins the one-column kernels' operand order where
// random inputs rarely reach it: every pair adds two NaNs of different
// payloads, in both operand orders, and so do the group sums and the row
// accumulator of the emit.
func TestOneColumnNaNPayloads(t *testing.T) {
	p := &Program{
		K: 3, M: 2, Bits: 4,
		Pairs: []Pair{{A: 0, B: 1}, {A: 1, B: 0}, {A: 2, B: 3}},
		Rows: []Row{
			{Terms: []Term{{Code: 1, Value: 0.5, Syms: []int32{3, 4, 0}}, {Code: 2, Value: 1, Syms: []int32{5, 1}}}},
			{Terms: []Term{{Code: -1, Value: -0.5, Syms: []int32{4, 2}}}},
		},
	}
	fillDepth(p)
	x := []float32{specialFloats[2], specialFloats[4], specialFloats[3]}
	checkCompiledMatrix(t, p, x, 1, 1)
}
