package actuator

import (
	"math"

	"didt/internal/sensor"
)

// DVS is a dynamic voltage scaling schedule that runs beside the
// gate/phantom-fire Mechanism: sustained voltage-low pressure walks the
// operating point down a descending schedule of voltage/frequency steps
// (each transition paying a latency), and a quiet spell walks it back up.
// The operating point scales the chip's current draw by
// step^CurrentExponent (P ~ V^2·f gives an exponent near 2 with I = P/V),
// so a lower step both shrinks the transients that cause voltage-low
// emergencies and leaves the mechanism's cycle-scale gating to catch what
// remains. DVS only ever shrinks the currents, so the mechanism's envelope
// stays a safe bound for the threshold solver.
type DVS struct {
	// Steps is the descending operating-point schedule (fractions of
	// nominal; Steps[0] must be 1).
	Steps []float64
	// TransitionCycles is the latency of one voltage/frequency step.
	TransitionCycles int
	// HoldCycles is the quiet time required before stepping back up.
	HoldCycles int
	// CurrentExponent relates the operating point to current draw.
	CurrentExponent float64

	// StepDowns and StepUps count committed transitions.
	StepDowns uint64
	StepUps   uint64

	scales  []float64 // Steps[i]^CurrentExponent, precomputed
	level   int       // current index into Steps
	pending int       // target index of an in-flight transition
	wait    int       // cycles remaining in the in-flight transition
	quiet   int       // consecutive non-Low cycles since the last reset
}

// NewDVS builds a DVS schedule. Empty steps select the
// [1, 0.95, 0.9] default schedule; a zero exponent selects 2 (zero
// latencies are honored as written — an ideal instantaneous regulator).
func NewDVS(steps []float64, transitionCycles, holdCycles int, currentExponent float64) *DVS {
	if len(steps) == 0 {
		steps = []float64{1, 0.95, 0.9}
	}
	if currentExponent == 0 {
		currentExponent = 2
	}
	d := &DVS{
		Steps:            steps,
		TransitionCycles: transitionCycles,
		HoldCycles:       holdCycles,
		CurrentExponent:  currentExponent,
		scales:           make([]float64, len(steps)),
	}
	for i, s := range steps {
		d.scales[i] = math.Pow(s, currentExponent)
	}
	return d
}

// Observe advances the voltage-step schedule one cycle with the given
// sensed level: Low pressure steps down (after TransitionCycles), and
// HoldCycles of quiet steps back up. The closed loop calls this once per
// controlled cycle with the bound rail's level, or the aggregate level.
//
//didt:hotpath
func (d *DVS) Observe(l sensor.Level) {
	if d.wait > 0 {
		d.wait--
		if d.wait == 0 {
			if d.pending > d.level {
				d.StepDowns++
			} else {
				d.StepUps++
			}
			d.level = d.pending
			d.quiet = 0
		}
		return
	}
	if l == sensor.Low {
		d.quiet = 0
		if d.level < len(d.Steps)-1 {
			d.begin(d.level + 1)
		}
		return
	}
	d.quiet++
	if d.level > 0 && d.quiet >= d.HoldCycles {
		d.begin(d.level - 1)
	}
}

func (d *DVS) begin(target int) {
	if d.TransitionCycles <= 0 {
		if target > d.level {
			d.StepDowns++
		} else {
			d.StepUps++
		}
		d.level = target
		d.quiet = 0
		return
	}
	d.pending = target
	d.wait = d.TransitionCycles
}

// Level returns the current schedule index.
func (d *DVS) Level() int { return d.level }

// Scale returns the current operating point as a fraction of nominal.
func (d *DVS) Scale() float64 { return d.Steps[d.level] }

// CurrentScale returns the factor the operating point applies to current
// draw (Scale^CurrentExponent, precomputed per step).
//
//didt:hotpath
func (d *DVS) CurrentScale() float64 { return d.scales[d.level] }

// Reset returns the schedule to full speed and zeroes the counters.
func (d *DVS) Reset() {
	d.level, d.pending, d.wait, d.quiet = 0, 0, 0, 0
	d.StepDowns, d.StepUps = 0, 0
}
