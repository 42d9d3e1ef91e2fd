package quant

import (
	"slices"
	"sync"
)

// RowGroup is one value group of a matrix row: the ascending column
// indices whose code equals Code.
type RowGroup struct {
	Code int32
	Idx  []int32
}

// groupScratch is GroupRows' working storage, kept between calls in
// groupPool. next is all zero whenever a scratch is in the pool.
type groupScratch struct {
	next    []int32 // per code of the span: count, then scatter position
	present []int32 // distinct codes of the current row, zero included
	row     []int32 // the current row's indices, grouped by code
	groups  []RowGroup
}

var groupPool = sync.Pool{New: func() any { return new(groupScratch) }}

// GroupRows hands visit each row of q in order (dimension 0 is the row
// dimension, the rest is flattened) as its value groups, one per distinct
// non-zero code in ascending code order — the S(o,v) index sets every
// value-factorized kernel starts from. All-zero rows are not visited.
//
// Rows are grouped by a counting sort, one path for every bit-width. Each
// row's distinct codes are found on first occurrence and sorted, so a row
// never costs the matrix's code span. The zero code is one more counting
// bucket, placed after the non-zero ones: the row's indices are scattered
// into a reused row buffer without a branch per entry, the non-zero prefix
// is appended to dst and the zero tail dropped. dst is returned grown by
// exactly the non-zero count (pass nil, or a buffer to reuse), and its
// storage does not move while rows are visited. A group's Idx is a window
// of that storage with its capacity cut at its end, so a holder may rewrite
// it in place without reaching a neighbour; the groups slice itself is
// reused between visits.
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
		nnz += int(uint32(c|-c) >> 31) // 1 for a non-zero code, without a branch
	}
	if nnz == 0 {
		return dst
	}
	dst = slices.Grow(dst, nnz)
	s := groupPool.Get().(*groupScratch)
	if span := int(hi-lo) + 1; len(s.next) < span {
		s.next = make([]int32, span)
	}
	s.row = slices.Grow(s.row[:0], k)[:k]
	next, buf, present, groups := s.next[:int(hi-lo)+1], s.row, s.present[:0], s.groups[:0]
	zero := -lo // the zero code's bucket
	for r := 0; r < m; r++ {
		row := q.Codes[r*k : (r+1)*k]
		present = present[:0]
		for _, c := range row {
			if next[c-lo] == 0 {
				present = append(present, c)
			}
			next[c-lo]++
		}
		slices.Sort(present)
		// next[c-lo] becomes the position in buf the row's next index with
		// code c is written to: the non-zero codes in ascending order, then
		// the zero code.
		off := len(dst)
		var n int32
		groups = groups[:0]
		for _, c := range present {
			if c == 0 {
				continue
			}
			cnt := next[c-lo]
			start := off + int(n)
			groups = append(groups, RowGroup{Code: c, Idx: dst[start : start+int(cnt) : start+int(cnt)]})
			next[c-lo] = n
			n += cnt
		}
		next[zero] = n
		for i, c := range row {
			buf[next[c-lo]] = int32(i)
			next[c-lo]++
		}
		for _, c := range present {
			next[c-lo] = 0
		}
		next[zero] = 0
		if n == 0 {
			continue
		}
		dst = append(dst, buf[:n]...)
		visit(r, groups)
	}
	clear(groups[:cap(groups)]) // the pool must not keep dst alive
	s.present, s.groups = present[:0], groups[:0]
	groupPool.Put(s)
	return dst
}
