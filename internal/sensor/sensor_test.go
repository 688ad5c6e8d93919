package sensor

import (
	"testing"
	"testing/quick"
)

func mustSensor(t *testing.T, delay int, noise float64) *Sensor {
	t.Helper()
	s, err := New(delay, noise, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetThresholds(0.96, 1.04); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValidation(t *testing.T) {
	if _, err := New(-1, 0, 0); err == nil {
		t.Error("want error for negative delay")
	}
	if _, err := New(0, -0.1, 0); err == nil {
		t.Error("want error for negative noise")
	}
	s, _ := New(0, 0, 0)
	if err := s.SetThresholds(1.04, 0.96); err == nil {
		t.Error("want error for inverted thresholds")
	}
}

func TestZeroDelayImmediateDetection(t *testing.T) {
	s := mustSensor(t, 0, 0)
	if got := s.Sense(1.0); got != Normal {
		t.Errorf("nominal: %v", got)
	}
	if got := s.Sense(0.95); got != Low {
		t.Errorf("low: %v", got)
	}
	if got := s.Sense(1.05); got != High {
		t.Errorf("high: %v", got)
	}
}

func TestDelayShiftsDetection(t *testing.T) {
	const d = 3
	s := mustSensor(t, d, 0)
	// Fill the line with nominal.
	for i := 0; i < d+1; i++ {
		if got := s.Sense(1.0); got != Normal {
			t.Fatalf("warmup cycle %d: %v", i, got)
		}
	}
	// A dip now must be reported exactly d cycles later.
	if got := s.Sense(0.90); got != Normal {
		t.Errorf("dip visible immediately with delay %d", d)
	}
	for i := 0; i < d-1; i++ {
		if got := s.Sense(1.0); got != Normal {
			t.Errorf("dip visible %d cycles early", d-1-i)
		}
	}
	if got := s.Sense(1.0); got != Low {
		t.Error("dip never became visible")
	}
	if got := s.Sense(1.0); got != Normal {
		t.Error("dip reported twice")
	}
}

func TestNoiseCanFlipMarginalReadings(t *testing.T) {
	// With 25mV noise, a voltage 10mV above the low threshold sometimes
	// reads Low, and never without noise.
	clean := mustSensor(t, 0, 0)
	noisy := mustSensor(t, 0, 0.025)
	falseAlarms := 0
	for i := 0; i < 1000; i++ {
		if clean.Sense(0.97) != Normal {
			t.Fatal("clean sensor false alarm")
		}
		if noisy.Sense(0.97) == Low {
			falseAlarms++
		}
	}
	if falseAlarms == 0 {
		t.Error("noisy sensor never false-alarmed on a marginal reading")
	}
	if falseAlarms > 600 {
		t.Errorf("noise dominates signal: %d/1000 false alarms", falseAlarms)
	}
}

func TestNoiseDeterministicPerSeed(t *testing.T) {
	a, _ := New(0, 0.02, 42)
	b, _ := New(0, 0.02, 42)
	a.SetThresholds(0.96, 1.04)
	b.SetThresholds(0.96, 1.04)
	for i := 0; i < 500; i++ {
		v := 0.955 + float64(i%20)*0.001
		if a.Sense(v) != b.Sense(v) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestResetClearsLine(t *testing.T) {
	s := mustSensor(t, 2, 0)
	for i := 0; i < 5; i++ {
		s.Sense(0.90)
	}
	s.Reset(7)
	// After reset the line must refill before reporting.
	if got := s.Sense(0.90); got != Normal {
		t.Errorf("first post-reset reading: %v", got)
	}
}

func TestPropertyCleanSensorMatchesThresholds(t *testing.T) {
	s := mustSensor(t, 0, 0)
	lo, hi := s.Thresholds()
	f := func(raw uint16) bool {
		v := 0.9 + float64(raw)/65535*0.2 // 0.9 .. 1.1
		got := s.Sense(v)
		switch {
		case v < lo:
			return got == Low
		case v > hi:
			return got == High
		default:
			return got == Normal
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevelString(t *testing.T) {
	if Low.String() != "low" || High.String() != "high" || Normal.String() != "normal" {
		t.Error("level names")
	}
}

// TestClassifyAheadMatchesSense drives one sensor cycle by cycle through
// Sense and a twin the way the closed loop's block driver does — classify
// the first B-1 cycles of a block ahead of their pushes (lead 1..B-1),
// push the block, classify the last cycle at lead 0 — and requires the
// same level on every cycle, the same noise stream and the same trip
// counts, for every delay the paper studies, with and without noise.
func TestClassifyAheadMatchesSense(t *testing.T) {
	for delay := 0; delay <= 6; delay++ {
		for _, noise := range []float64{0, 0.01} {
			ref := mustSensorSeed(t, delay, noise, int64(delay))
			blk := mustSensorSeed(t, delay, noise, int64(delay))
			b := delay + 1
			volts := make([]float64, b)
			for m := 0; m < 400; m += b {
				for j := range volts {
					volts[j] = 0.95 + 0.1*float64((m+j)*7%23)/22
				}
				got := make([]Level, b)
				for j := 0; j < b-1; j++ {
					got[j] = blk.Classify(j + 1)
				}
				for _, v := range volts {
					blk.Push(v)
				}
				got[b-1] = blk.Classify(0)
				for j, v := range volts {
					if want := ref.Sense(v); got[j] != want {
						t.Fatalf("delay %d noise %g cycle %d: block %v, sense %v", delay, noise, m+j, got[j], want)
					}
				}
			}
			rs, rl, rh := ref.Trips()
			bs, bl, bh := blk.Trips()
			if rs != bs || rl != bl || rh != bh {
				t.Errorf("delay %d noise %g: trips %d/%d/%d vs %d/%d/%d", delay, noise, bs, bl, bh, rs, rl, rh)
			}
		}
	}
}

func mustSensorSeed(t *testing.T, delay int, noise float64, seed int64) *Sensor {
	t.Helper()
	s, err := New(delay, noise, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetThresholds(0.97, 1.03); err != nil {
		t.Fatal(err)
	}
	return s
}
