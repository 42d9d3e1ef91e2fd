package ipe

import (
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// FuzzUnmarshalBinary feeds arbitrary bytes to the wire-format parser: it
// must either return an error or produce a structurally valid program —
// never panic, never accept garbage that later crashes the executor.
func FuzzUnmarshalBinary(f *testing.F) {
	// Seed with a real serialized program and a few mutations.
	r := tensor.NewRNG(1)
	q := randQuant(r, 8, 24, 4, 0)
	prog, _, err := Encode(q, DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	data, err := prog.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x45, 0x50, 0x49})

	f.Fuzz(func(t *testing.T, b []byte) {
		var p Program
		if err := p.UnmarshalBinary(b); err != nil {
			return
		}
		// Accepted programs must be safe to run.
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted program fails validation: %v", err)
		}
		if p.K > 1<<16 || p.M > 1<<16 {
			return // avoid pathological allocations in the fuzz loop
		}
		x := make([]float32, p.K)
		y := make([]float32, p.M)
		p.Compiled().ExecuteMatrixIntoPar(y, x, 1, tensor.NewPar(nil, 1))
	})
}

// FuzzEncodeRoundTrip drives the encoder with fuzzer-chosen shapes, bit
// widths and constraints: every encode must decode back to the exact code
// matrix and satisfy its own bounds.
func FuzzEncodeRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(2), uint8(8), uint8(3), uint8(16))
	f.Fuzz(func(t *testing.T, seed uint64, bits, dict, depth, tile uint8) {
		b := int(bits%8) + 1
		r := tensor.NewRNG(seed)
		m := 1 + r.Intn(12)
		k := 2 + r.Intn(40)
		w := tensor.New(m, k)
		tensor.FillGaussian(w, r, 1)
		q := quant.Quantize(w, b, quant.PerTensor)
		cfg := Config{MaxDict: int(dict), MaxDepth: int(depth), TileSize: int(tile)}
		prog, _, err := Encode(q, cfg)
		if err != nil {
			t.Fatalf("encode rejected valid input: %v", err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := prog.VerifyAgainst(q); err != nil {
			t.Fatal(err)
		}
		// Serialization round trip under fuzzed configs too.
		data, err := prog.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Program
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
	})
}
