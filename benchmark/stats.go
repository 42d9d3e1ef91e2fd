package main

import (
	"fmt"
	"math"
	"sort"
)

// Metric is one named measurement as the benchmark prints it: the value,
// its unit, and the number of samples behind it. Note carries what a reader
// must know to interpret the value (e.g. the percentile actually reported
// when the sample was too small for the one the name asks for).
type Metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Note  string
}

// minBeyond is the sample-count rule: a percentile is reported only when at
// least this many samples lie beyond it, so one slow request cannot be the
// whole tail.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank quantile of an ascending sample: the
// smallest element with at least q·n samples at or below it. Empty samples
// yield 0.
func quantile(asc []float64, q float64) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return asc[rank-1]
}

// median is the 0.5 quantile of an unsorted sample, averaging the two
// middle elements of an even-sized one (so it matches statistics.median).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// supportedQuantile lowers q until at least minBeyond samples lie beyond
// it: the highest percentile the sample supports, never above the one asked
// for. Samples too small to support any tail percentile fall back to the
// median.
func supportedQuantile(n int, q float64) float64 {
	if n <= 0 {
		return q
	}
	max := 1 - float64(minBeyond)/float64(n)
	if q <= max {
		return q
	}
	if max < 0.5 {
		return 0.5
	}
	return max
}

// tail reports quantile q of xs under the sample-count rule. The second
// result is the quantile actually reported (== q when the sample supports
// it).
func tail(xs []float64, q float64) (value, reported float64) {
	reported = supportedQuantile(len(xs), q)
	return quantile(sorted(xs), reported), reported
}

// percentileNote says so when the sample was too small for the percentile a
// metric is named after and a lower one was reported.
func percentileNote(asked, reported float64) string {
	if reported == asked {
		return ""
	}
	return fmt.Sprintf("too few samples for p%g: this is p%.4g", asked*100, reported*100)
}

// shareAbove is the fraction of xs strictly above limit.
func shareAbove(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
