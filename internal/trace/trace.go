// Package trace provides per-cycle current and voltage trace containers
// with summary statistics and CSV import/export. Traces are the interchange
// format between the cycle simulator, the PDN model, and the experiment
// harness (the paper's Figure 7 data flow).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Trace is a sequence of per-cycle samples (amperes for current traces,
// volts for voltage traces).
type Trace []float64

// Min returns the smallest sample, or +Inf for an empty trace.
func (t Trace) Min() float64 {
	m := math.Inf(1)
	for _, v := range t {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample, or -Inf for an empty trace.
func (t Trace) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean, or 0 for an empty trace.
func (t Trace) Mean() float64 {
	if len(t) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range t {
		s += v
	}
	return s / float64(len(t))
}

// Percentile returns the p-th percentile (0..100) by nearest-rank on a
// sorted copy. An empty trace returns 0.
func (t Trace) Percentile(p float64) float64 {
	if len(t) == 0 {
		return 0
	}
	c := append(Trace(nil), t...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	idx := int(math.Ceil(p/100*float64(len(c)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c[idx]
}

// CountBelow returns how many samples are strictly below x.
func (t Trace) CountBelow(x float64) int {
	n := 0
	for _, v := range t {
		if v < x {
			n++
		}
	}
	return n
}

// CountAbove returns how many samples are strictly above x.
func (t Trace) CountAbove(x float64) int {
	n := 0
	for _, v := range t {
		if v > x {
			n++
		}
	}
	return n
}

// CountOutside returns how many samples fall outside [lo, hi]; for voltage
// traces with the emergency band this is the emergency-cycle count.
func (t Trace) CountOutside(lo, hi float64) int {
	return t.CountBelow(lo) + t.CountAbove(hi)
}

// MaxStep returns the largest absolute cycle-to-cycle change — the dI/dt
// figure of merit for a current trace.
func (t Trace) MaxStep() float64 {
	m := 0.0
	for i := 1; i < len(t); i++ {
		if d := math.Abs(t[i] - t[i-1]); d > m {
			m = d
		}
	}
	return m
}

// Slice returns t[lo:hi] clamped to valid bounds.
func (t Trace) Slice(lo, hi int) Trace {
	if lo < 0 {
		lo = 0
	}
	if hi > len(t) {
		hi = len(t)
	}
	if lo >= hi {
		return nil
	}
	return t[lo:hi]
}

// WriteCSV emits "cycle,value" rows with a header.
func (t Trace) WriteCSV(w io.Writer, valueName string) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "cycle,%s\n", valueName); err != nil {
		return err
	}
	for i, v := range t {
		if _, err := fmt.Fprintf(bw, "%d,%g\n", i, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses the format written by WriteCSV (header optional; the
// second column is taken as the value).
func ReadCSV(r io.Reader) (Trace, error) {
	sc := bufio.NewScanner(r)
	var out Trace
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) < 2 {
			return nil, fmt.Errorf("trace: line %d: want 2 columns, got %q", line, text)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			if line == 1 {
				continue // header
			}
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
