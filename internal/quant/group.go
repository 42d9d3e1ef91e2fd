package quant

import "slices"

// RowGroup is one value group of a matrix row: the ascending column
// indices whose code equals Code.
type RowGroup struct {
	Code int32
	Idx  []int32
}

// GroupRows hands visit each row of q in order (dimension 0 is the row
// dimension, the rest is flattened) as its value groups, one per distinct
// non-zero code in ascending code order — the S(o,v) index sets every
// value-factorized kernel starts from. All-zero rows are not visited.
//
// Rows are grouped by a counting sort over the matrix's observed code span,
// one path for every bit-width. The indices are appended to dst, which is
// returned grown by exactly the non-zero count (pass nil, or a buffer to
// reuse). A group's Idx is a window of that storage with its capacity cut
// at its end, so a holder may rewrite it in place without reaching a
// neighbour; the groups slice itself is reused between visits.
func (q *Quantized) GroupRows(dst []int32, visit func(row int, groups []RowGroup)) []int32 {
	m := q.Shape[0]
	if m == 0 || len(q.Codes) == 0 {
		return dst
	}
	k := len(q.Codes) / m
	var lo, hi int32 // observed code span; includes the zero code
	nnz := 0
	for _, c := range q.Codes {
		lo, hi = min(lo, c), max(hi, c)
		if c != 0 {
			nnz++
		}
	}
	dst = slices.Grow(dst, nnz)
	// next[c-lo] counts code c in the current row, then becomes the
	// position in dst the row's next index with that code is written to.
	next := make([]int, int(hi-lo)+1)
	var present []int32 // distinct non-zero codes of the current row
	var groups []RowGroup
	for r := 0; r < m; r++ {
		row := q.Codes[r*k : (r+1)*k]
		present = present[:0]
		for _, c := range row {
			if c == 0 {
				continue
			}
			if next[c-lo] == 0 {
				present = append(present, c)
			}
			next[c-lo]++
		}
		if len(present) == 0 {
			continue
		}
		slices.Sort(present)
		groups = groups[:0]
		off := len(dst)
		for _, c := range present {
			n := next[c-lo]
			groups = append(groups, RowGroup{Code: c, Idx: dst[off : off+n : off+n]})
			next[c-lo] = off
			off += n
		}
		dst = dst[:off]
		for i, c := range row {
			if c != 0 {
				dst[next[c-lo]] = int32(i)
				next[c-lo]++
			}
		}
		for _, c := range present {
			next[c-lo] = 0
		}
		visit(r, groups)
	}
	return dst
}
