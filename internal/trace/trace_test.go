package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryStats(t *testing.T) {
	tr := Trace{1, 2, 3, 4, 5}
	if tr.Min() != 1 || tr.Max() != 5 {
		t.Errorf("min/max: %g/%g", tr.Min(), tr.Max())
	}
	if tr.Mean() != 3 {
		t.Errorf("mean: %g", tr.Mean())
	}
}

func TestEmptyTrace(t *testing.T) {
	var tr Trace
	if !math.IsInf(tr.Min(), 1) || !math.IsInf(tr.Max(), -1) {
		t.Error("empty min/max should be infinities")
	}
	if tr.Mean() != 0 || tr.Percentile(50) != 0 {
		t.Error("empty aggregates should be zero")
	}
}

func TestPercentile(t *testing.T) {
	tr := Trace{5, 1, 4, 2, 3}
	if tr.Percentile(0) != 1 || tr.Percentile(100) != 5 {
		t.Error("extreme percentiles")
	}
	if got := tr.Percentile(50); got != 3 {
		t.Errorf("median: %g", got)
	}
	// Original order untouched.
	if tr[0] != 5 {
		t.Error("Percentile mutated the trace")
	}
}

func TestCounts(t *testing.T) {
	tr := Trace{0.94, 0.96, 1.0, 1.04, 1.06}
	if tr.CountBelow(0.95) != 1 || tr.CountAbove(1.05) != 1 {
		t.Error("below/above counts")
	}
	if tr.CountOutside(0.95, 1.05) != 2 {
		t.Error("outside count")
	}
}

func TestMaxStep(t *testing.T) {
	tr := Trace{10, 12, 50, 49}
	if got := tr.MaxStep(); got != 38 {
		t.Errorf("max step: %g", got)
	}
	if (Trace{7}).MaxStep() != 0 {
		t.Error("single sample has no step")
	}
}

func TestSliceClamps(t *testing.T) {
	tr := Trace{1, 2, 3}
	if got := tr.Slice(-5, 99); len(got) != 3 {
		t.Errorf("clamped slice: %v", got)
	}
	if got := tr.Slice(2, 1); got != nil {
		t.Errorf("inverted slice: %v", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Trace{1.5, -2.25, 1e-6}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf, "current"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "cycle,current\n") {
		t.Error("missing header")
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("length %d", len(got))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Errorf("sample %d: %g != %g", i, got[i], tr[i])
		}
	}
}

// TestWriteCSVBytes pins the CSV format didtsim's -dump-current and
// -dump-voltage write: a header, then one "cycle,value" row per sample in
// %g form.
func TestWriteCSVBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := (Trace{1.5, -2.25, 1e-6, 40}).WriteCSV(&buf, "current"); err != nil {
		t.Fatal(err)
	}
	if want := "cycle,current\n0,1.5\n1,-2.25\n2,1e-06\n3,40\n"; buf.String() != want {
		t.Errorf("WriteCSV wrote %q, want %q", buf.String(), want)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a\n")); err == nil {
		t.Error("want error for single column")
	}
	if _, err := ReadCSV(strings.NewReader("cycle,v\n0,notanumber\n")); err == nil {
		t.Error("want error for bad value")
	}
}

func TestPropertyMeanWithinRange(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		// Clamp to a physical range (amperes/volts) so the sum cannot
		// overflow; the trace type is for physical quantities.
		xs := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			xs[i] = math.Mod(x, 1e6)
		}
		tr := Trace(xs)
		m := tr.Mean()
		return m >= tr.Min()-1e-9 && m <= tr.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
