package actuator

import (
	"math"

	"didt/internal/cpu"
	"didt/internal/power"
	"didt/internal/sensor"
)

// DVS layers dynamic voltage scaling over an inner gate/phantom-fire
// responder: sustained voltage-low pressure walks the operating point down
// a descending schedule of voltage/frequency steps (each transition paying
// a latency), and a quiet spell walks it back up. The operating point
// scales the chip's current draw by step^CurrentExponent (P ~ V^2·f gives
// an exponent near 2 with I = P/V), so a lower step both shrinks the
// transients that cause voltage-low emergencies and leaves the inner
// mechanism's cycle-scale gating to catch what remains — the two actuators
// compose through the one Responder interface.
type DVS struct {
	// Inner handles the cycle-scale gate/phantom response; its decisions
	// pass through unchanged.
	Inner Responder
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

var _ Responder = (*DVS)(nil)

// NewDVS builds a DVS responder around inner. Empty steps select the
// [1, 0.95, 0.9] default schedule; a zero exponent selects 2 (zero
// latencies are honored as written — an ideal instantaneous regulator).
func NewDVS(inner Responder, steps []float64, transitionCycles, holdCycles int, currentExponent float64) *DVS {
	if len(steps) == 0 {
		steps = []float64{1, 0.95, 0.9}
	}
	if currentExponent == 0 {
		currentExponent = 2
	}
	d := &DVS{
		Inner:            inner,
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

// Label implements Responder.
func (d *DVS) Label() string { return d.Inner.Label() + "+dvs" }

// Envelope implements Responder, delegating to the inner mechanism: the
// solver's authority limits describe the cycle-scale actuator; DVS only
// ever shrinks the currents flowing through them, so the inner envelope
// stays a safe bound.
func (d *DVS) Envelope(pm *power.Model) (floor, ceil float64) {
	return d.Inner.Envelope(pm)
}

// Respond implements Responder: the inner mechanism's gating and phantom
// decisions pass through unchanged. It never moves the schedule; the
// owner advances it through Observe, from whichever sensed level it binds
// the schedule to.
//
//didt:hotpath
func (d *DVS) Respond(l sensor.Level) (cpu.Gating, power.Phantom) {
	return d.Inner.Respond(l)
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
