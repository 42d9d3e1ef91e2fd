package ipe

import (
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

// matrixCase builds an encoder-made program and a [K, pTotal] input from
// seed: the shape, bit width and encoder limits vary with the seed, and
// about one input in eight is drawn from specialFloats.
func matrixCase(seed uint64, pTotal int) (*Program, []float32) {
	r := tensor.NewRNG(seed)
	m, k := 1+r.Intn(24), 2+r.Intn(60)
	w := tensor.New(m, k)
	tensor.FillGaussian(w, r, 1)
	if r.Intn(2) == 0 {
		quant.PruneMagnitude(w, 0.5)
	}
	q := quant.Quantize(w, 2+r.Intn(7), quant.PerChannel)
	cfg := Config{MaxDict: []int{0, 8, 4096}[r.Intn(3)], MaxDepth: []int{0, 2, 8}[r.Intn(3)]}
	prog, _, err := Encode(q, cfg)
	if err != nil {
		panic(err)
	}
	cols := make([]float32, k*pTotal)
	for i := range cols {
		if r.Intn(8) == 0 {
			cols[i] = specialFloats[r.Intn(len(specialFloats))]
		} else {
			cols[i] = r.Float32()*8 - 4
		}
	}
	return prog, cols
}

// checkCompiledMatrix requires the compiled column-blocked executor on
// shards shards to equal the interpreter bit for bit; NaN payloads are
// compared too where the kernels pin them (pinsNaNPayloads), and NaN must
// meet NaN everywhere.
func checkCompiledMatrix(t *testing.T, prog *Program, cols []float32, pTotal, shards int) {
	t.Helper()
	want := make([]float32, prog.M*pTotal)
	var s tensor.Scratch
	prog.ExecuteMatrixInto(want, cols, pTotal, &s)
	got := make([]float32, prog.M*pTotal)
	prog.Compiled().ExecuteMatrixIntoPar(got, cols, pTotal, forcedPar(shards))
	for i := range want {
		if bothNaN := got[i] != got[i] && want[i] != want[i]; bothNaN && !pinsNaNPayloads {
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("M=%d K=%d pTotal=%d shards=%d: [%d] = %#08x, interpreter %#08x",
				prog.M, prog.K, pTotal, shards, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
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
