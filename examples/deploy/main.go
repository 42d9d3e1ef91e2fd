// Deploy: encode a layer once, ship the flat binary instruction stream, and
// run inference from the loaded stream — the offline-compile / online-run
// split a fixed-function decoder would use, including the integer
// (8-bit activation) execution path.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/ipe"
	"repro/internal/quant"
	"repro/internal/report"
	"repro/internal/tensor"
)

func main() {
	// --- Offline: quantize, encode, serialize. ---
	r := tensor.NewRNG(99)
	w := tensor.New(128, 512)
	tensor.FillGaussian(w, r, tensor.KaimingStd(512))
	q := quant.Quantize(w, 4, quant.PerChannel)
	prog, stats, err := ipe.Encode(q, ipe.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	data, err := prog.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "inspire-deploy-layer.ipe")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline: encoded 128x512 @ 4 bits → %s stream (%d dict pairs, %.2fx compression)\n",
		report.Bytes(int64(len(data))), prog.DictSize(), stats.CompressionRatio())
	fmt.Printf("         wrote %s\n", path)
	fmt.Printf("         scratch plan: %d slots for %d entries (linear-scan reuse)\n",
		prog.Compiled().NumSlots, prog.DictSize())

	// --- Online: load the stream and run. ---
	loadedBytes, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var loaded ipe.Program
	if err := loaded.UnmarshalBinary(loadedBytes); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("online:  loaded and validated (%d symbols, depth %d)\n",
		loaded.NumSymbols(), loaded.MaxDepthUsed())

	x := make([]float32, loaded.K)
	for i := range x {
		x[i] = float32(r.NormFloat64())
	}
	yFloat := loaded.ExecuteMatrix(tensor.From(x, loaded.K, 1)).Data() // x as one column

	// Integer path: quantize activations to 8 bits, run exactly in int64,
	// requantize.
	xp := quant.Calibrate([]*tensor.Tensor{tensor.From(x, loaded.K)}, 8)
	yInt := make([]float32, loaded.M)
	loaded.ExecuteQuantized(x, yInt, xp, 8)

	var maxDiff float64
	for i := range yFloat {
		d := float64(yFloat[i] - yInt[i])
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("ran float and int8 paths: max |float − int8| = %.3e (activation quantization error)\n", maxDiff)
	if err := os.Remove(path); err != nil {
		log.Fatal(err)
	}
	fmt.Println("cleaned up; deployment round trip complete")
}
