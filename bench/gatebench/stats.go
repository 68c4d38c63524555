package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified. An
// empty sample yields NaN so a missing measurement can never pass for 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), which is
// what the acceptance rule for this benchmark is written in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		v := median(xs)
		return v, v, v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// int64sToFloats converts a sample of integer readings (ns, counts).
func int64sToFloats(xs []int64, scale float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) * scale
	}
	return out
}

// window tracks which message ids of one session the reader has seen. The
// ring is wider than the generator's in-flight bound, because the gateway's
// branches reorder; an id outside it, or one seen twice, is a failure.
type window struct {
	contig int64 // every id below has been seen
	seen   []bool
}

func newWindow(ring int, base int64) *window {
	return &window{contig: base, seen: make([]bool, ring)}
}

// mark records id; it reports false for a duplicate or an id out of range.
func (w *window) mark(id int64) bool {
	n := int64(len(w.seen))
	if id < w.contig || id >= w.contig+n || w.seen[id%n] {
		return false
	}
	w.seen[id%n] = true
	for w.seen[w.contig%n] {
		w.seen[w.contig%n] = false
		w.contig++
	}
	return true
}
