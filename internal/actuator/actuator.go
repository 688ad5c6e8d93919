// Package actuator implements the microarchitectural actuation mechanisms
// of Section 5. An actuator responds to the sensor's Low/Normal/High level
// by clock-gating its controlled units (voltage low: cut current quickly)
// or phantom-firing them (voltage high: burn current quickly). The three
// granularities evaluated in the paper are FU, FU/DL1 and FU/DL1/IL1;
// Ideal abstracts a perfect mechanism for the sensor study of Section 4.
package actuator

import (
	"fmt"
	"strings"

	"didt/internal/cpu"
	"didt/internal/power"
	"didt/internal/sensor"
)

// Mechanism names a set of controllable units.
type Mechanism struct {
	Name string
	FUs  bool // functional units (int + fp pipelines)
	DL1  bool // level-one data cache
	IL1  bool // level-one instruction cache
}

// The granularities of Section 5.1 plus the ideal mechanism of Section 4.
var (
	FU       = Mechanism{Name: "FU", FUs: true}
	FUDL1    = Mechanism{Name: "FU/DL1", FUs: true, DL1: true}
	FUDL1IL1 = Mechanism{Name: "FU/DL1/IL1", FUs: true, DL1: true, IL1: true}
	// Ideal gates everything controllable; Section 4 uses it to study
	// sensor properties in isolation from actuator limitations.
	Ideal = Mechanism{Name: "ideal", FUs: true, DL1: true, IL1: true}
)

// Granularities lists the real mechanisms in increasing scope, the order
// Figures 17/18 sweep them.
func Granularities() []Mechanism { return []Mechanism{FU, FUDL1, FUDL1IL1} }

// Names lists every mechanism name accepted by ByName, in increasing
// actuation scope.
func Names() []string { return []string{"FU", "FU/DL1", "FU/DL1/IL1", "ideal"} }

// ByName resolves a mechanism by its canonical name ("FU", "FU/DL1",
// "FU/DL1/IL1" or "ideal"). This is the single name registry behind
// spec.RunSpec, the CLIs and the server, so every layer accepts exactly
// the same vocabulary.
func ByName(name string) (Mechanism, error) {
	switch name {
	case "FU":
		return FU, nil
	case "FU/DL1":
		return FUDL1, nil
	case "FU/DL1/IL1":
		return FUDL1IL1, nil
	case "ideal":
		return Ideal, nil
	}
	return Mechanism{}, fmt.Errorf("unknown mechanism %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// Respond maps a sensed level to gating and phantom-firing decisions: a
// Low reading gates the controlled units (dropping current so the supply
// recovers), a High reading phantom-fires them (raising current to pull
// the supply down), and Normal releases both.
//
//didt:hotpath
func (m Mechanism) Respond(l sensor.Level) (cpu.Gating, power.Phantom) {
	switch l {
	case sensor.Low:
		return cpu.Gating{FUs: m.FUs, DL1: m.DL1, IL1: m.IL1}, power.Phantom{}
	case sensor.High:
		return cpu.Gating{}, power.Phantom{FUs: m.FUs, DL1: m.DL1, IL1: m.IL1}
	}
	return cpu.Gating{}, power.Phantom{}
}

// Envelope reports the current range this mechanism can force, given a
// power model: Floor is the deepest dip gating can achieve, Ceil the
// highest rise phantom firing can achieve. The threshold solver uses these
// as the actuator's authority limits.
func (m Mechanism) Envelope(pm *power.Model) (floor, ceil float64) {
	return pm.GatedFloorCurrent(power.AllScopes, m.FUs, m.DL1, m.IL1),
		pm.PhantomCeilingCurrent(power.AllScopes, m.FUs, m.DL1, m.IL1)
}

// Counting wraps a Responder and tallies how it is exercised — one plain
// integer increment per cycle, harvested once per run by the telemetry
// layer. The closed loop installs it around whatever responder a run
// configures, so actuation counts appear in metrics manifests for the
// paper's mechanisms and custom responders alike.
type Counting struct {
	R Responder

	LowResponses    uint64 // cycles responding to a voltage-low reading
	HighResponses   uint64 // cycles responding to a voltage-high reading
	NormalResponses uint64 // cycles with both actuations released
}

var _ Responder = (*Counting)(nil)

// Label implements Responder, delegating to the wrapped responder.
func (c *Counting) Label() string { return c.R.Label() }

// Respond implements Responder, counting by sensed level.
//
//didt:hotpath
func (c *Counting) Respond(l sensor.Level) (cpu.Gating, power.Phantom) {
	switch l {
	case sensor.Low:
		c.LowResponses++
	case sensor.High:
		c.HighResponses++
	default:
		c.NormalResponses++
	}
	return c.R.Respond(l)
}

// Envelope implements Responder, delegating to the wrapped responder.
func (c *Counting) Envelope(pm *power.Model) (floor, ceil float64) {
	return c.R.Envelope(pm)
}
