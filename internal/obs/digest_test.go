package obs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/ipe"
	"repro/internal/runtime"
)

// compiledProgramDigests pins the encoder's output: SHA-256 over the wire
// form (length-prefixed MarshalBinary) of every conv/dense layer's IPE
// programs of each served model, at the default seed and the benchmark's
// first three swap seeds, compiled with inspire-serve's default options but
// IPE forced, so every layer keeps its encoding (an auto plan keeps only the
// layers IPE wins). They were generated before the compile path lost its Go
// maps (flat pair table, shared row grouping, quantize-once) and must never
// change with a compile-speed change: a different digest means a different
// program is being served.
var compiledProgramDigests = map[string]string{
	"lenet5/0":        "04403defac1c1cc2cfd5bb60adc7c5cd611f247219145dba573a43a06c8f8410",
	"lenet5/1001":     "5b019d7379365281af9a8954d51422e7897bda83e884f8ad6015ea65d694ad59",
	"lenet5/1002":     "54f4fe2aefe643db68b4299ceac8bf857892c71d88b0298a3a2c2e6d90b45c23",
	"lenet5/1003":     "dd6bdd31a3188971d9487cbcf867ad8bffd8dcf6d98ee8b8661d61f6707a7df9",
	"squeezenet/0":    "ab8828221fdaf8028ca0fa3e0a16f46ae6bade817be32fb1017525ac1d2c47c0",
	"squeezenet/1001": "b4c2a5d0ae6fb00783edd5c19e7a088a0b34e25c74cf9444fd326e52c6167f1e",
	"squeezenet/1002": "9e9845c911660be879ce1f3f2caff737914aee60067789d9b24892f63f9bc9b4",
	"squeezenet/1003": "7484e24f9851e78bc957a84975e5f90652e008d98cf343bfcb259e32b9134bec",
}

// serveDefaults is what a default-flag inspire-serve compiles with: auto
// selection, 4-bit, a dictionary store of its own.
func serveDefaults() runtime.Options {
	return runtime.Options{Force: runtime.ImplAuto, Bits: 4, DictStore: ipe.NewDictStore()}
}

func TestCompiledProgramDigests(t *testing.T) {
	for _, name := range []string{"lenet5", "squeezenet"} {
		for _, seed := range []uint64{0, 1001, 1002, 1003} {
			opts := serveDefaults()
			opts.Force = runtime.ImplIPE
			plan, err := CompilePlan(name, seed, opts)
			if err != nil {
				t.Fatal(err)
			}
			progs := plan.IPEPrograms()
			if len(progs) == 0 {
				t.Fatalf("%s/%d: plan holds no IPE program", name, seed)
			}
			h := sha256.New()
			for _, prog := range progs {
				b, err := prog.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				var n [8]byte
				binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
				h.Write(n[:])
				h.Write(b)
			}
			key := fmt.Sprintf("%s/%d", name, seed)
			if got := hex.EncodeToString(h.Sum(nil)); got != compiledProgramDigests[key] {
				t.Errorf("%s: %d programs digest %s, want %s", key, len(progs), got, compiledProgramDigests[key])
			}
		}
	}
}
