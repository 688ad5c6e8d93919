package actuator

import (
	"math"
	"testing"

	"didt/internal/sensor"
)

func TestDVSDefaults(t *testing.T) {
	d := NewDVS(nil, 10, 60, 0)
	if len(d.Steps) != 3 || d.Steps[0] != 1 {
		t.Errorf("default steps %v", d.Steps)
	}
	if d.CurrentExponent != 2 {
		t.Errorf("default exponent %g", d.CurrentExponent)
	}
	if d.Scale() != 1 || d.CurrentScale() != 1 {
		t.Errorf("initial operating point %g/%g, want 1/1", d.Scale(), d.CurrentScale())
	}
}

func TestDVSStepsDownWithLatencyAndBackUpAfterHold(t *testing.T) {
	d := NewDVS([]float64{1, 0.9, 0.8}, 5, 20, 2)
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
	d := NewDVS([]float64{1, 0.9}, 0, 10, 2)
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

func TestDVSReset(t *testing.T) {
	d := NewDVS([]float64{1, 0.9}, 0, 5, 2)
	d.Observe(sensor.Low)
	d.Reset()
	if d.Scale() != 1 || d.StepDowns != 0 || d.StepUps != 0 {
		t.Errorf("reset left state: scale %g downs %d ups %d", d.Scale(), d.StepDowns, d.StepUps)
	}
}
