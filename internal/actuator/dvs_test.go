package actuator

import (
	"math"
	"testing"

	"didt/internal/cpu"
	"didt/internal/power"
	"didt/internal/sensor"
)

func TestDVSDefaults(t *testing.T) {
	d := NewDVS(FU, nil, 10, 60, 0)
	if len(d.Steps) != 3 || d.Steps[0] != 1 {
		t.Errorf("default steps %v", d.Steps)
	}
	if d.CurrentExponent != 2 {
		t.Errorf("default exponent %g", d.CurrentExponent)
	}
	if d.Scale() != 1 || d.CurrentScale() != 1 {
		t.Errorf("initial operating point %g/%g, want 1/1", d.Scale(), d.CurrentScale())
	}
	if d.Label() != "FU+dvs" {
		t.Errorf("label %q", d.Label())
	}
}

// TestDVSPassesInnerResponseThrough: Respond returns the inner
// mechanism's decision and never moves the schedule — with zero latencies
// a single Observe(Low) would step down at once, so any hidden advance
// shows up in the operating point and the counters.
func TestDVSPassesInnerResponseThrough(t *testing.T) {
	d := NewDVS(FUDL1IL1, nil, 0, 0, 2)
	for i := 0; i < 10; i++ {
		for _, l := range []sensor.Level{sensor.Low, sensor.Normal, sensor.High} {
			g, p := d.Respond(l)
			wg, wp := FUDL1IL1.Respond(l)
			if g != wg || p != wp {
				t.Errorf("level %v: response (%+v,%+v) != inner (%+v,%+v)", l, g, p, wg, wp)
			}
		}
	}
	if d.Level() != 0 || d.Scale() != 1 || d.StepDowns != 0 || d.StepUps != 0 {
		t.Errorf("Respond moved the schedule: level %d scale %g, %d down %d up",
			d.Level(), d.Scale(), d.StepDowns, d.StepUps)
	}
	d.Observe(sensor.Low)
	if d.Scale() != 0.95 {
		t.Errorf("Observe(Low) with zero latency: scale %g, want 0.95", d.Scale())
	}
}

func TestDVSStepsDownWithLatencyAndBackUpAfterHold(t *testing.T) {
	d := NewDVS(FU, []float64{1, 0.9, 0.8}, 5, 20, 2)
	// One Low starts a transition; the step commits only after the
	// 5-cycle latency, during which the operating point is unchanged.
	d.Observe(sensor.Low)
	for i := 0; i < 4; i++ {
		if d.Scale() != 1 {
			t.Fatalf("cycle %d: stepped before latency elapsed (scale %g)", i, d.Scale())
		}
		d.Observe(sensor.Normal)
	}
	d.Observe(sensor.Normal)
	if d.Scale() != 0.9 || d.StepDowns != 1 {
		t.Fatalf("after latency: scale %g downs %d, want 0.9/1", d.Scale(), d.StepDowns)
	}
	if want := math.Pow(0.9, 2); d.CurrentScale() != want {
		t.Errorf("current scale %g, want %g", d.CurrentScale(), want)
	}
	// Sustained pressure reaches the bottom step and stays there.
	for i := 0; i < 50; i++ {
		d.Observe(sensor.Low)
	}
	if d.Scale() != 0.8 {
		t.Fatalf("sustained pressure: scale %g, want 0.8", d.Scale())
	}
	// Quiet for HoldCycles steps back up (one latency per step).
	for i := 0; i < 2*(20+5)+2; i++ {
		d.Observe(sensor.Normal)
	}
	if d.Scale() != 1 || d.StepUps < 2 {
		t.Errorf("after quiet: scale %g ups %d, want 1.0 and >=2", d.Scale(), d.StepUps)
	}
}

func TestDVSLowDuringQuietResetsHold(t *testing.T) {
	d := NewDVS(FU, []float64{1, 0.9}, 0, 10, 2)
	d.Observe(sensor.Low) // instantaneous (zero latency)
	if d.Scale() != 0.9 {
		t.Fatalf("zero-latency step did not commit: %g", d.Scale())
	}
	// 9 quiet cycles, then pressure again: the hold countdown restarts,
	// so 9 more quiet cycles must not step up.
	for i := 0; i < 9; i++ {
		d.Observe(sensor.Normal)
	}
	d.Observe(sensor.Low)
	for i := 0; i < 9; i++ {
		d.Observe(sensor.Normal)
	}
	if d.Scale() != 0.9 {
		t.Errorf("stepped up before a full quiet hold: %g", d.Scale())
	}
	d.Observe(sensor.Normal)
	if d.Scale() != 1 {
		t.Errorf("full hold elapsed but no step up: %g", d.Scale())
	}
}

func TestDVSEnvelopeDelegates(t *testing.T) {
	pm := power.New(power.Params{}, cpu.DefaultConfig())
	d := NewDVS(FUDL1, nil, 10, 60, 2)
	f, c := d.Envelope(pm)
	wf, wc := FUDL1.Envelope(pm)
	if f != wf || c != wc {
		t.Errorf("envelope (%g,%g) != inner (%g,%g)", f, c, wf, wc)
	}
}

func TestDVSReset(t *testing.T) {
	d := NewDVS(FU, []float64{1, 0.9}, 0, 5, 2)
	d.Observe(sensor.Low)
	d.Reset()
	if d.Scale() != 1 || d.StepDowns != 0 || d.StepUps != 0 {
		t.Errorf("reset left state: scale %g downs %d ups %d", d.Scale(), d.StepDowns, d.StepUps)
	}
}
