package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(0.5)
	h.Add(5.5)
	h.Add(5.6)
	h.Add(9.9)
	if h.Total() != 4 {
		t.Errorf("total %d", h.Total())
	}
	if h.Counts[0] != 1 || h.Counts[5] != 2 || h.Counts[9] != 1 {
		t.Errorf("counts %v", h.Counts)
	}
	if got := h.Mode(); got != 5.5 {
		t.Errorf("mode %g", got)
	}
}

func TestHistogramSaturatesEdges(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-100)
	h.Add(100)
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Errorf("edge saturation: %v", h.Counts)
	}
	if h.Total() != 2 {
		t.Error("out-of-range samples must still count")
	}
}

func TestHistogramSpread(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	if h.Spread() != 0 {
		t.Error("empty spread")
	}
	h.Add(1.5)
	if h.Spread() != 0 {
		t.Error("single-bin spread should be 0")
	}
	h.Add(8.5)
	if got := h.Spread(); got != 7 {
		t.Errorf("spread %g, want 7", got)
	}
}

func TestHistogramDegenerateArgs(t *testing.T) {
	h := NewHistogram(5, 5, 0) // invalid range and bins
	h.Add(5)
	if h.Total() != 1 {
		t.Error("degenerate histogram must still accept samples")
	}
}

func TestAddAll(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	h.AddAll([]float64{0.1, 0.2, 0.3})
	if h.Total() != 3 {
		t.Error("AddAll")
	}
}

func TestAggregates(t *testing.T) {
	xs := []float64{2, 8}
	if Mean(xs) != 5 {
		t.Error("mean")
	}
	if GeoMean(xs) != 4 {
		t.Error("geomean")
	}
	if Mean(nil) != 0 || GeoMean(nil) != 0 {
		t.Error("empty aggregates")
	}
}

func TestGeoMeanFlagsNonPositive(t *testing.T) {
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Error("geomean of negative values must be NaN")
	}
}

func TestPropertyHistogramConservesSamples(t *testing.T) {
	f := func(raw []float64) bool {
		h := NewHistogram(-1, 1, 50)
		n := 0
		for _, x := range raw {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		var sum uint64
		for _, c := range h.Counts {
			sum += c
		}
		return sum == uint64(n) && h.Total() == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
