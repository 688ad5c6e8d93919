// Package sensor models the threshold voltage sensor of Section 4: a
// three-level (Low/Normal/High) comparator against configurable thresholds,
// with a configurable detection delay (the paper studies 0-6 cycles) and
// additive white measurement noise (the paper studies 10-25 mV).
//
// The sensor deliberately does not report a numeric voltage: the paper
// argues that range detection (bandgap references, inverter-chain delay
// detectors) is what is implementable within 1-2 cycles, while full
// digitization is not.
package sensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Level is the sensor's three-valued output.
type Level int

const (
	Normal Level = iota
	Low
	High
)

// String names the level.
func (l Level) String() string {
	switch l {
	case Low:
		return "low"
	case High:
		return "high"
	case Normal:
		return "normal"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Sensor compares (delayed, noisy) voltage readings against thresholds.
// Not safe for concurrent use.
type Sensor struct {
	delay   int
	noise   float64 // peak amplitude of uniform white noise, volts
	rng     *rand.Rand
	line    []float64 // delay line; line[0] is the newest sample
	filled  int
	vLow    float64
	vHigh   float64
	nominal float64

	// Trip accounting for the telemetry layer: plain (non-atomic) locals
	// incremented in Sense, harvested once per run, so the hot path pays
	// an increment and nothing else.
	samples   uint64
	lowTrips  uint64
	highTrips uint64
}

// New builds a sensor with the given detection delay in cycles and noise
// amplitude in volts (0 for an ideal sensor). seed makes the noise stream
// reproducible. Thresholds start disabled (never trip) until SetThresholds.
func New(delay int, noise float64, seed int64) (*Sensor, error) {
	if delay < 0 {
		return nil, fmt.Errorf("sensor: negative delay %d", delay)
	}
	if noise < 0 {
		return nil, fmt.Errorf("sensor: negative noise %g", noise)
	}
	s := &Sensor{
		delay:   delay,
		noise:   noise,
		rng:     rand.New(rand.NewSource(seed)),
		line:    make([]float64, delay+1),
		vLow:    -1e9,
		vHigh:   1e9,
		nominal: 1.0,
	}
	return s, nil
}

// SetThresholds installs the trip points. lo must be below hi.
func (s *Sensor) SetThresholds(lo, hi float64) error {
	if lo >= hi {
		return fmt.Errorf("sensor: low threshold %g not below high %g", lo, hi)
	}
	s.vLow, s.vHigh = lo, hi
	return nil
}

// Decides reports whether pushing v classifies exactly as pushing any
// voltage within eps of it would, whatever the noise draw: v is farther
// than eps plus the noise amplitude from both thresholds. A reading is
// fl(v + noise) with |noise| <= the amplitude, and both comparisons are
// monotone in v, so the answer for v is then the answer for every voltage
// in [v-eps, v+eps].
//
//didt:hotpath
func (s *Sensor) Decides(v, eps float64) bool {
	r := eps + s.noise
	return math.Abs(v-s.vLow) > r && math.Abs(v-s.vHigh) > r
}

// Thresholds returns the current trip points.
func (s *Sensor) Thresholds() (lo, hi float64) { return s.vLow, s.vHigh }

// Delay returns the detection delay in cycles.
func (s *Sensor) Delay() int { return s.delay }

// Sense pushes this cycle's true voltage into the delay line and returns
// the level of the reading the sensor can see now (the voltage from Delay
// cycles ago, perturbed by measurement noise). Before the line fills, the
// sensor reports Normal — the paper's systems power up quiescent. It is
// Push followed by Classify(0).
//
//didt:hotpath
func (s *Sensor) Sense(v float64) Level {
	s.Push(v)
	return s.Classify(0)
}

// Push records this cycle's true voltage in the delay line without
// classifying anything: no noise draw, no trip count.
//
//didt:hotpath
func (s *Sensor) Push(v float64) {
	copy(s.line[1:], s.line)
	s.line[0] = v
	if s.filled < len(s.line) {
		s.filled++
	}
}

// Classify returns the level the sensor reports lead cycles after the
// newest pushed sample, 0 <= lead <= Delay(): the reading of the voltage
// pushed Delay()-lead cycles before it. Because the sensor sees the supply
// Delay cycles late, the level of cycle m is known once cycle m-Delay's
// voltage is, so a caller may classify up to Delay cycles ahead of its
// pushes. Classification draws the noise and counts trips, so calls must
// come in cycle order, exactly one per cycle; Sense is the lead-0 case.
//
//didt:hotpath
func (s *Sensor) Classify(lead int) Level {
	if s.filled+lead < len(s.line) {
		return Normal
	}
	reading := s.line[s.delay-lead]
	if s.noise > 0 {
		reading += (2*s.rng.Float64() - 1) * s.noise
	}
	s.samples++
	switch {
	case reading < s.vLow:
		s.lowTrips++
		return Low
	case reading > s.vHigh:
		s.highTrips++
		return High
	}
	return Normal
}

// Trips reports how many readings the sensor has classified in total and
// how many tripped each threshold since construction (or the last Reset).
func (s *Sensor) Trips() (samples, low, high uint64) {
	return s.samples, s.lowTrips, s.highTrips
}

// Reset clears the delay line, trip counts, and reseeds the noise stream.
func (s *Sensor) Reset(seed int64) {
	for i := range s.line {
		s.line[i] = 0
	}
	s.filled = 0
	s.samples, s.lowTrips, s.highTrips = 0, 0, 0
	s.rng = rand.New(rand.NewSource(seed))
}
