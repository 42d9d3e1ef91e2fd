package quant

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/tensor"
)

// group is one visited value group with its row, copied out of the visit.
type group struct {
	row  int
	code int32
	idx  []int32
}

// collectGroups runs GroupRows over q appending to dst and copies every
// visited group out (the groups slice is reused between visits).
func collectGroups(q *Quantized, dst []int32) ([]group, []int32) {
	var got []group
	dst = q.GroupRows(dst, func(row int, groups []RowGroup) {
		for _, g := range groups {
			got = append(got, group{row, g.Code, append([]int32(nil), g.Idx...)})
		}
	})
	return got, dst
}

// referenceGroups is the map-and-sort grouping GroupRows replaced: the
// oracle the counting sort must agree with.
func referenceGroups(q *Quantized) []group {
	m := q.Shape[0]
	k := len(q.Codes) / m
	var want []group
	for r := 0; r < m; r++ {
		byCode := make(map[int32][]int32)
		for i := 0; i < k; i++ {
			if c := q.Codes[r*k+i]; c != 0 {
				byCode[c] = append(byCode[c], int32(i))
			}
		}
		codes := make([]int32, 0, len(byCode))
		for c := range byCode {
			codes = append(codes, c)
		}
		sort.Slice(codes, func(a, b int) bool { return codes[a] < codes[b] })
		for _, c := range codes {
			want = append(want, group{r, c, byCode[c]})
		}
	}
	return want
}

func matrix(codes []int32, m, k int) *Quantized {
	return &Quantized{Codes: codes, Shape: tensor.Shape{m, k}, Bits: 8, Params: []Params{{Scale: 1}}}
}

func TestGroupRowsMatchesReferenceAcrossBitWidths(t *testing.T) {
	for _, bits := range []int{1, 2, 4, 8, 16} {
		for _, scheme := range []Scheme{PerTensor, PerChannel} {
			r := tensor.NewRNG(uint64(bits))
			w := tensor.New(9, 37)
			tensor.FillGaussian(w, r, 1)
			PruneMagnitude(w, 0.25)
			q := Quantize(w, bits, scheme)
			got, dst := collectGroups(q, nil)
			if want := referenceGroups(q); !reflect.DeepEqual(got, want) {
				t.Errorf("bits %d %v: groups differ from the map-and-sort reference", bits, scheme)
			}
			nnz := 0
			for _, c := range q.Codes {
				if c != 0 {
					nnz++
				}
			}
			if len(dst) != nnz {
				t.Errorf("bits %d %v: index storage holds %d entries, want the %d non-zeros", bits, scheme, len(dst), nnz)
			}
		}
	}
}

func TestGroupRowsEdgeRows(t *testing.T) {
	// Row 0 negative-only, row 1 all zero, row 2 one entry at each end of
	// the span, row 3 a single code repeated.
	q := matrix([]int32{
		-3, -1, -3, 0, -1,
		0, 0, 0, 0, 0,
		-32767, 0, 0, 0, 32767,
		5, 5, 5, 5, 5,
	}, 4, 5)
	got, _ := collectGroups(q, nil)
	want := []group{
		{0, -3, []int32{0, 2}}, {0, -1, []int32{1, 4}},
		{2, -32767, []int32{0}}, {2, 32767, []int32{4}},
		{3, 5, []int32{0, 1, 2, 3, 4}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
}

func TestGroupRowsAllZeroMatrix(t *testing.T) {
	q := matrix(make([]int32, 12), 3, 4)
	prior := []int32{7, 8}
	dst := q.GroupRows(prior, func(int, []RowGroup) { t.Fatal("visited a row of an all-zero matrix") })
	if !reflect.DeepEqual(dst, prior) {
		t.Fatalf("dst = %v, want it returned untouched", dst)
	}
}

// TestGroupRowsAppendsToDst checks the append contract EncodeShared relies
// on: a second matrix grouped into the same storage leaves the first
// matrix's indices where they were.
func TestGroupRowsAppendsToDst(t *testing.T) {
	a := matrix([]int32{1, 0, 1, 2}, 1, 4)
	b := matrix([]int32{0, 3, 3, 0}, 1, 4)
	_, dst := collectGroups(a, make([]int32, 0, 16))
	_, dst = collectGroups(b, dst)
	if want := []int32{0, 2, 3, 1, 2}; !reflect.DeepEqual(dst, want) {
		t.Fatalf("dst = %v, want %v", dst, want)
	}
}

// TestGroupRowsWindowsAreCapacityLimited pins the property the encoder's
// in-place rewrite depends on: a group's Idx cannot grow into the group
// stored after it.
func TestGroupRowsWindowsAreCapacityLimited(t *testing.T) {
	q := matrix([]int32{
		1, 2, 1, 2,
		3, 3, 0, 4,
	}, 2, 4)
	var held [][]int32
	q.GroupRows(nil, func(_ int, groups []RowGroup) {
		for _, g := range groups {
			if cap(g.Idx) != len(g.Idx) {
				t.Errorf("code %d: cap %d != len %d", g.Code, cap(g.Idx), len(g.Idx))
			}
			held = append(held, g.Idx)
		}
	})
	grown := append(held[0], 99) // must reallocate, not overwrite held[1][0]
	if grown[len(grown)-1] != 99 || !reflect.DeepEqual(held[1], []int32{1, 3}) {
		t.Fatalf("appending to one group changed its neighbour: %v", held[1])
	}
}

func TestRowsViewSharesCodesAndSlicesParams(t *testing.T) {
	w := tensor.New(6, 2, 1, 3)
	tensor.FillGaussian(w, tensor.NewRNG(3), 1)
	for _, scheme := range []Scheme{PerTensor, PerChannel} {
		q := Quantize(w, 4, scheme)
		v := q.Rows(2, 4)
		if !v.Shape.Equal(tensor.Shape{2, 6}) || &v.Codes[0] != &q.Codes[12] || len(v.Codes) != 12 {
			t.Fatalf("%v: view shape %v over %d codes", scheme, v.Shape, len(v.Codes))
		}
		for r := 0; r < 2; r++ {
			if v.RowScale(r) != q.RowScale(2+r) {
				t.Errorf("%v: view row %d scale %v, want %v", scheme, r, v.RowScale(r), q.RowScale(2+r))
			}
		}
		if !tensor.AllClose(v.Dequantize(), tensor.From(q.Dequantize().Data()[12:24], 2, 6), 0, 0) {
			t.Errorf("%v: view dequantizes differently from the rows it views", scheme)
		}
	}
}

// FuzzGroupRows checks GroupRows against the map-and-sort reference on
// fuzzed shapes, bit-widths 1–16 and forced all-zero rows, appending to a
// dst that holds up to 7 entries already: those stay as they were, dst
// grows by exactly the non-zero count, and every group's Idx is a
// capacity-limited window of it.
func FuzzGroupRows(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(9), uint8(4), uint16(0), uint8(3), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(1), uint16(0), uint8(0), uint8(1))
	f.Add(uint64(3), uint8(7), uint8(33), uint8(16), uint16(0b1010), uint8(5), uint8(2))
	f.Add(uint64(4), uint8(3), uint8(5), uint8(8), uint16(0xffff), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, m, k, bits uint8, zeroRows uint16, prefix, zeros uint8) {
		rows, cols, b := 1+int(m%32), 1+int(k%80), 1+int(bits%16)
		r := tensor.NewRNG(seed)
		codes := make([]int32, rows*cols)
		lo, span := -(1 << (b - 1)), 1<<b
		for i := range codes {
			if r.Intn(4) >= int(zeros%4) {
				codes[i] = int32(lo + r.Intn(span))
			}
		}
		for row := 0; row < rows; row++ {
			if zeroRows>>(row%16)&1 == 1 {
				clear(codes[row*cols : (row+1)*cols])
			}
		}
		q := &Quantized{Codes: codes, Shape: tensor.Shape{rows, cols}, Bits: b, Params: []Params{{Scale: 1}}}

		head := make([]int32, int(prefix%8))
		for i := range head {
			head[i] = int32(-1 - i)
		}
		dst := append([]int32(nil), head...)
		var got []group
		var firsts []*int32 // each group's first index, where it lives
		dst = q.GroupRows(dst, func(row int, groups []RowGroup) {
			for _, g := range groups {
				if cap(g.Idx) != len(g.Idx) {
					t.Fatalf("row %d code %d: window cap %d != len %d", row, g.Code, cap(g.Idx), len(g.Idx))
				}
				got = append(got, group{row, g.Code, append([]int32(nil), g.Idx...)})
				firsts = append(firsts, &g.Idx[0])
			}
		})
		if want := referenceGroups(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("groups %v, want %v", got, want)
		}
		nnz := 0
		for _, c := range codes {
			if c != 0 {
				nnz++
			}
		}
		if len(dst) != len(head)+nnz || !slices.Equal(dst[:len(head)], head) {
			t.Fatalf("dst %v: want the prefix %v grown by the %d non-zeros", dst, head, nnz)
		}
		off := len(head)
		for i, g := range got {
			if firsts[i] != &dst[off] {
				t.Fatalf("group %d (row %d code %d) is not the window of dst after the groups before it", i, g.row, g.code)
			}
			off += len(g.idx)
		}
	})
}
