package actuator

import (
	"math"
	"testing"

	"didt/internal/cpu"
	"didt/internal/power"
	"didt/internal/sensor"
)

func TestRespondMapsLevels(t *testing.T) {
	for _, m := range Granularities() {
		if m.Gate != (cpu.Gating{FUs: m.Fire.FUs, DL1: m.Fire.DL1, IL1: m.Fire.IL1}) {
			t.Errorf("%s: gates %+v but fires %+v", m.Name, m.Gate, m.Fire)
		}
		g, ph := m.Respond(sensor.Low)
		if g != m.Gate {
			t.Errorf("%s low: gating %+v", m.Name, g)
		}
		if ph != (power.Phantom{}) {
			t.Errorf("%s low: phantom should be off", m.Name)
		}
		g, ph = m.Respond(sensor.High)
		if g != (cpu.Gating{}) {
			t.Errorf("%s high: gating should be off", m.Name)
		}
		if ph != m.Fire {
			t.Errorf("%s high: phantom %+v", m.Name, ph)
		}
		g, ph = m.Respond(sensor.Normal)
		if g != (cpu.Gating{}) || ph != (power.Phantom{}) {
			t.Errorf("%s normal: should release everything", m.Name)
		}
	}
}

func TestGranularitiesOrdering(t *testing.T) {
	gs := Granularities()
	if len(gs) != 3 || gs[0].Name != "FU" || gs[2].Name != "FU/DL1/IL1" {
		t.Errorf("granularities: %+v", gs)
	}
}

func TestEnvelopeAuthorityGrowsWithScope(t *testing.T) {
	pm := power.New(power.Params{}, cpu.DefaultConfig())
	prevFloor := math.Inf(1)
	prevCeil := math.Inf(-1)
	for _, m := range Granularities() {
		floor, ceil := m.Envelope(pm)
		if floor >= prevFloor {
			t.Errorf("%s: floor %g not below previous %g", m.Name, floor, prevFloor)
		}
		if ceil <= prevCeil {
			t.Errorf("%s: ceiling %g not above previous %g", m.Name, ceil, prevCeil)
		}
		prevFloor, prevCeil = floor, ceil
	}
	// FU-only is so weak its busy-chip floor exceeds its idle-chip ceiling
	// — the Section 5.2 leverage problem in one inequality.
	if f, c := FU.Envelope(pm); f <= c {
		t.Errorf("FU-only floor %g should exceed its ceiling %g", f, c)
	}
	// Ideal matches the widest real mechanism.
	fi, ci := Ideal.Envelope(pm)
	f3, c3 := FUDL1IL1.Envelope(pm)
	if fi != f3 || ci != c3 {
		t.Error("ideal envelope should equal FU/DL1/IL1")
	}
}

// TestByName: the four symmetric names resolve to the package values, and
// every "gate X, fire Y" pairing of them gates X's units and fires Y's,
// with the gate half's floor and the fire half's ceiling bit for bit.
func TestByName(t *testing.T) {
	pm := power.New(power.Params{}, cpu.DefaultConfig())
	sym := []Mechanism{FU, FUDL1, FUDL1IL1, Ideal}
	for i, name := range Names() {
		m, err := ByName(name)
		if err != nil || m != sym[i] {
			t.Errorf("ByName(%q) = %+v, %v; want %+v", name, m, err, sym[i])
		}
	}
	for _, x := range sym {
		for _, y := range sym {
			name := "gate " + x.Name + ", fire " + y.Name
			m, err := ByName(name)
			if err != nil {
				t.Errorf("ByName(%q): %v", name, err)
				continue
			}
			if m.Name != name || m.Gate != x.Gate || m.Fire != y.Fire {
				t.Errorf("ByName(%q) = %+v", name, m)
			}
			floor, ceil := m.Envelope(pm)
			wantFloor, _ := x.Envelope(pm)
			_, wantCeil := y.Envelope(pm)
			if math.Float64bits(floor) != math.Float64bits(wantFloor) || math.Float64bits(ceil) != math.Float64bits(wantCeil) {
				t.Errorf("%s: envelope (%v, %v), want (%v, %v)", name, floor, ceil, wantFloor, wantCeil)
			}
		}
	}
	for _, bad := range []string{
		"", "fu", "DVFS", "gate FU", "fire FU, gate FU", "gate FU,fire FU", "gate FU, fire FU/DL2",
		"gate FU, fire gate FU, fire FU", "gate  FU, fire FU", "gate FU, fire FU ",
	} {
		if m, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted: %+v", bad, m)
		}
	}
}

// TestAsymmetricRespond: the Section 6 pairing gates the wide scope on a
// voltage-low reading and fires only the FUs on a voltage-high one.
func TestAsymmetricRespond(t *testing.T) {
	a, err := ByName("gate FU/DL1/IL1, fire FU")
	if err != nil {
		t.Fatal(err)
	}
	g, ph := a.Respond(sensor.Low)
	if !g.FUs || !g.DL1 || !g.IL1 {
		t.Errorf("low response should gate the wide scope: %+v", g)
	}
	if ph != (power.Phantom{}) {
		t.Error("low response must not phantom-fire")
	}
	g, ph = a.Respond(sensor.High)
	if g != (cpu.Gating{}) {
		t.Error("high response must not gate")
	}
	if !ph.FUs || ph.DL1 || ph.IL1 {
		t.Errorf("high response should fire only the FU scope: %+v", ph)
	}
	g, ph = a.Respond(sensor.Normal)
	if g != (cpu.Gating{}) || ph != (power.Phantom{}) {
		t.Error("normal must release everything")
	}
}

// TestAsymmetricEnvelopeMixesScopes: a pairing's reach over any scope mask
// is its gate half's floor and its fire half's ceiling there.
func TestAsymmetricEnvelopeMixesScopes(t *testing.T) {
	pm := power.New(power.Params{}, cpu.DefaultConfig())
	a, err := ByName("gate FU/DL1/IL1, fire FU")
	if err != nil {
		t.Fatal(err)
	}
	for mask := power.ScopeMask(1); mask <= power.AllScopes; mask++ {
		floor, ceil := a.Reach(pm, mask)
		wantFloor, _ := FUDL1IL1.Reach(pm, mask)
		_, wantCeil := FU.Reach(pm, mask)
		if floor != wantFloor || ceil != wantCeil {
			t.Errorf("mask %b: reach (%g, %g), want (%g, %g)", mask, floor, ceil, wantFloor, wantCeil)
		}
	}
}
