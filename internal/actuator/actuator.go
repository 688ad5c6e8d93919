// Package actuator implements the microarchitectural actuation mechanisms
// of Section 5. An actuator responds to the sensor's Low/Normal/High level
// by clock-gating units (voltage low: cut current quickly) or
// phantom-firing units (voltage high: burn current quickly). The three
// granularities evaluated in the paper are FU, FU/DL1 and FU/DL1/IL1;
// Ideal abstracts a perfect mechanism for the sensor study of Section 4.
// Section 6's asymmetric actuation — gate one set of units, fire another —
// is the same Mechanism with different Gate and Fire sets.
package actuator

import (
	"fmt"
	"slices"
	"strings"

	"didt/internal/cpu"
	"didt/internal/power"
	"didt/internal/sensor"
)

// Mechanism names the units it clock-gates on a voltage-low reading and
// the units it phantom-fires on a voltage-high one.
type Mechanism struct {
	Name string
	Gate cpu.Gating
	Fire power.Phantom
}

// symmetric gates and fires the same units.
func symmetric(name string, fus, dl1, il1 bool) Mechanism {
	return Mechanism{
		Name: name,
		Gate: cpu.Gating{FUs: fus, DL1: dl1, IL1: il1},
		Fire: power.Phantom{FUs: fus, DL1: dl1, IL1: il1},
	}
}

// The granularities of Section 5.1 plus the ideal mechanism of Section 4.
var (
	FU       = symmetric("FU", true, false, false)
	FUDL1    = symmetric("FU/DL1", true, true, false)
	FUDL1IL1 = symmetric("FU/DL1/IL1", true, true, true)
	// Ideal gates everything controllable; Section 4 uses it to study
	// sensor properties in isolation from actuator limitations.
	Ideal = symmetric("ideal", true, true, true)
)

// Granularities lists the real mechanisms in increasing scope, the order
// Figures 17/18 sweep them.
func Granularities() []Mechanism { return []Mechanism{FU, FUDL1, FUDL1IL1} }

// Names lists the symmetric mechanism names, in increasing actuation
// scope. ByName also accepts a pairing of two of them.
func Names() []string { return []string{"FU", "FU/DL1", "FU/DL1/IL1", "ideal"} }

// Pair splits a Section 6 pairing "gate X, fire Y" into X and Y; ok is
// false when name does not have that shape.
func Pair(name string) (gate, fire string, ok bool) {
	rest, ok := strings.CutPrefix(name, "gate ")
	if !ok {
		return "", "", false
	}
	return strings.Cut(rest, ", fire ")
}

// ByName resolves a mechanism by name: one of Names(), or "gate X, fire
// Y", which gates X's units and fires Y's (X and Y from Names()). This is
// the single name registry behind spec.RunSpec, the CLIs and the server,
// so every layer accepts exactly the same vocabulary.
func ByName(name string) (Mechanism, error) {
	all := []Mechanism{FU, FUDL1, FUDL1IL1, Ideal}
	if i := slices.Index(Names(), name); i >= 0 {
		return all[i], nil
	}
	if gate, fire, ok := Pair(name); ok {
		g, f := slices.Index(Names(), gate), slices.Index(Names(), fire)
		if g >= 0 && f >= 0 {
			return Mechanism{Name: name, Gate: all[g].Gate, Fire: all[f].Fire}, nil
		}
	}
	return Mechanism{}, fmt.Errorf(`unknown mechanism %q (valid: %s, or "gate X, fire Y" of two of them)`,
		name, strings.Join(Names(), ", "))
}

// Respond maps a sensed level to gating and phantom-firing decisions: a
// Low reading gates the Gate units (dropping current so the supply
// recovers), a High reading phantom-fires the Fire units (raising current
// to pull the supply down), and Normal releases both.
//
//didt:hotpath
func (m Mechanism) Respond(l sensor.Level) (cpu.Gating, power.Phantom) {
	switch l {
	case sensor.Low:
		return m.Gate, power.Phantom{}
	case sensor.High:
		return cpu.Gating{}, m.Fire
	}
	return cpu.Gating{}, power.Phantom{}
}

// Reach reports the current range this mechanism can force on the units
// of the delivery scopes in mask: Floor is the deepest dip gating can
// achieve, Ceil the highest rise phantom firing can achieve.
func (m Mechanism) Reach(pm *power.Model, mask power.ScopeMask) (floor, ceil float64) {
	g, f := m.Gate, m.Fire
	return pm.GatedFloorCurrent(mask, g.FUs, g.DL1, g.IL1),
		pm.PhantomCeilingCurrent(mask, f.FUs, f.DL1, f.IL1)
}

// Envelope is the mechanism's whole-chip Reach. The threshold solver uses
// it as the actuator's authority limits.
func (m Mechanism) Envelope(pm *power.Model) (floor, ceil float64) {
	return m.Reach(pm, power.AllScopes)
}
