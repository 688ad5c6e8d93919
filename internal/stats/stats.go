// Package stats provides the small statistical toolkit used by the
// experiment harness: fixed-bin histograms (for the paper's Figure 10
// voltage distributions) and aggregate helpers.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Samples outside
// the range land in the saturating edge bins so no data is lost.
type Histogram struct {
	Lo, Hi float64
	Counts []uint64
	total  uint64
}

// NewHistogram creates a histogram with n bins spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 {
		n = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, n)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.Counts[h.Bin(x)]++
	h.total++
}

// Bin returns the bin Add would count x in. It is non-decreasing in x, so
// every sample between two with the same bin lands in that bin too.
func (h *Histogram) Bin(x float64) int {
	n := len(h.Counts)
	idx := int(float64(n) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// AddAll records every sample in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() uint64 { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Fraction returns the fraction of samples in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// Mode returns the center of the most populated bin.
func (h *Histogram) Mode() float64 {
	best, bi := uint64(0), 0
	for i, c := range h.Counts {
		if c > best {
			best, bi = c, i
		}
	}
	return h.BinCenter(bi)
}

// Spread returns the distance between the lowest and highest non-empty bin
// centers — a cheap width measure for comparing Figure 10 distributions.
func (h *Histogram) Spread() float64 {
	lo, hi := -1, -1
	for i, c := range h.Counts {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo < 0 {
		return 0
	}
	return h.BinCenter(hi) - h.BinCenter(lo)
}

// String renders a compact textual summary.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist[%g,%g) n=%d total=%d mode=%.4g", h.Lo, h.Hi, len(h.Counts), h.total, h.Mode())
}

// Mean returns the arithmetic mean of xs (0 if empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of positive xs; non-positive values
// make the result NaN, matching the usual benchmarking convention of
// flagging invalid aggregation loudly.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Max returns the maximum of xs, or -Inf if empty.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or +Inf if empty.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs (0 if empty). xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return 0.5 * (c[n/2-1] + c[n/2])
}
