package ipe

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// goldenDigests pins the factorized and CSR forms built from seeded
// synthetic weights: SHA-256 over every factorized term (Code, Value bits,
// index set; the terms of a Factorize program) and every CSR array
// (RowPtr, Col, Val bits; read off a Sparse program's one-symbol terms).
// They were generated before the row grouping moved to the shared counting
// sort, CSR to exact-size allocation, and both forms to empty-dictionary
// programs; a constructor change that keeps the kernels' inputs identical
// keeps these digests.
var goldenDigests = map[string]string{
	"dense/bits2/per-tensor":  "8ac160709bcc760e2fbf058e41eefb1bf5740e5b7e64805ffde48769cc15d185",
	"dense/bits2/per-channel": "0ef10091b58a6f744ed9f4111015e7284f3493fcefad85729e426ed27f067255",
	"dense/bits4/per-tensor":  "329973b25eb86474072ba9c413d535d35f2ee8dfe7475ebce0486d3ff2c7c690",
	"dense/bits4/per-channel": "59e4c3cb3de9977e0d85651b26eeb90178d9e8a444c953968a802520ad581503",
	"dense/bits8/per-tensor":  "4a0b957a298adbdef86d4b3244cd2079cde0db433467c283cab9528adecf5f6f",
	"dense/bits8/per-channel": "f0fbad019f3425c4e4adf19c72559c81ac4151a3d85840422441a50dd6faa850",
	"conv/groups4":            "385c0458f13957e6b4469c79f97045bb269ea5871a3b5be839b672f17f694c28",
}

func hashInts(h hash.Hash, vs ...int32) {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
}

func hashFactorized(h hash.Hash, p *Program) {
	hashInts(h, int32(p.M), int32(p.K))
	for _, row := range p.Rows {
		hashInts(h, int32(len(row.Terms)))
		for _, t := range row.Terms {
			hashInts(h, t.Code, int32(math.Float32bits(t.Value)), int32(len(t.Syms)))
			hashInts(h, t.Syms...)
		}
	}
}

// hashCSR hashes a Sparse program in the layout of the CSR matrix it
// replaced: M, K, nnz twice (columns, values), the row pointers, the column
// of every term and its value bits.
func hashCSR(h hash.Hash, p *Program) {
	rowPtr := []int32{0}
	var col, val []int32
	for _, row := range p.Rows {
		for _, t := range row.Terms {
			col = append(col, t.Syms...)
			val = append(val, int32(math.Float32bits(t.Value)))
		}
		rowPtr = append(rowPtr, int32(len(col)))
	}
	hashInts(h, int32(p.M), int32(p.K), int32(len(col)), int32(len(val)))
	hashInts(h, rowPtr...)
	hashInts(h, col...)
	hashInts(h, val...)
}

func TestGoldenFactorizedAndCSR(t *testing.T) {
	check := func(name string, h hash.Hash) {
		t.Helper()
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigests[name] {
			t.Errorf("%s: digest %s, want %s", name, got, goldenDigests[name])
		}
	}
	for _, bits := range []int{2, 4, 8} {
		for _, scheme := range []quant.Scheme{quant.PerTensor, quant.PerChannel} {
			r := tensor.NewRNG(uint64(100 + bits))
			w := tensor.New(12, 40)
			tensor.FillGaussian(w, r, 1)
			quant.PruneMagnitude(w, 0.3)
			for i := 0; i < 40; i++ {
				w.Data()[5*40+i] = 0 // one all-zero row
			}
			q := quant.Quantize(w, bits, scheme)
			h := sha256.New()
			hashFactorized(h, Factorize(q))
			hashCSR(h, Sparse(q))
			check(fmt.Sprintf("dense/bits%d/%s", bits, scheme), h)
		}
	}

	r := tensor.NewRNG(7)
	spec := tensor.ConvSpec{InC: 8, OutC: 12, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 4}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, r, 0.5)
	quant.PruneMagnitude(w, 0.4)
	q := quant.Quantize(w, 4, quant.PerChannel)
	fact, err := FactorizeConv(q, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := SparseConv(q, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(fact.Programs) != 4 || len(csr.Programs) != 4 {
		t.Fatalf("grouped conv built %d factorized / %d CSR programs, want 4 each", len(fact.Programs), len(csr.Programs))
	}
	h := sha256.New()
	for g := range fact.Programs {
		hashFactorized(h, fact.Programs[g])
		hashCSR(h, csr.Programs[g])
	}
	check("conv/groups4", h)
}
