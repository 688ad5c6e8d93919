package experiments

import (
	"fmt"
	"io"
	"math"

	"didt/internal/core"
	"didt/internal/cpu"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/report"
	"didt/internal/telemetry"
)

// numQuadrants is the floorplan partition size.
const numQuadrants = 4

// quadrantNames are the floorplan partition, in row order.
var quadrantNames = [numQuadrants]string{"front-end", "execute", "memory", "window"}

// Local grid calibration: local grids resonate at the top of the paper's
// troublesome 50-200 MHz band, local droop is allotted 0.4 of the chip's
// tolerance budget, and the grids are sized at the chip network's 200%
// impedance.
const (
	localResonantHz = 150e6
	localShare      = 0.4
	localImpedance  = 2
)

// unitQuadrant maps a power-model unit to its quadrant, or -1 for the
// clock tree, whose power is split evenly across the quadrants (power's
// scope partition puts the clock in uncore instead).
func unitQuadrant(u power.Unit) int {
	switch u {
	case power.UnitFetch, power.UnitBpred, power.UnitL1I, power.UnitRename:
		return 0 // front-end
	case power.UnitIntALU, power.UnitIntMult, power.UnitFPALU, power.UnitFPMult, power.UnitRegFile:
		return 1 // execute
	case power.UnitL1D, power.UnitLSQ, power.UnitL2:
		return 2 // memory
	case power.UnitWindow, power.UnitResultBus:
		return 3 // window
	}
	return -1
}

// splitQuadrants sums per-unit power into the quadrants.
func splitQuadrants(perUnit *[power.NumUnits]float64) (q [numQuadrants]float64) {
	for u, p := range perUnit {
		if i := unitQuadrant(power.Unit(u)); i >= 0 {
			q[i] += p
			continue
		}
		for i := range q {
			q[i] += p / numQuadrants
		}
	}
	return q
}

// localitySupply builds the study's rail graph: rail 0 is the chip
// network global, then one local grid per quadrant, calibrated on the
// quadrant's share of the chip envelope [iMin, iMax] by unit peak power.
func localitySupply(global *pdn.Network, peaks *[power.NumUnits]float64, iMin, iMax float64) (*pdn.Graph, error) {
	gp := global.Params()
	var total float64
	for _, p := range peaks {
		total += p
	}
	rails := []pdn.Rail{{Name: "global", Net: global}}
	for q, peak := range splitQuadrants(peaks) {
		qMin, qMax := iMin*peak/total, iMax*peak/total
		net, err := pdn.Calibrate(pdn.Params{
			ResonantHz:   localResonantHz,
			DCResistance: gp.DCResistance, // same metal class
			Tolerance:    gp.Tolerance * localShare,
			VNominal:     gp.VNominal,
			IFloor:       0.5 * (qMin + qMax),
			ClockHz:      gp.ClockHz,
		}, qMin, qMax, localImpedance)
		if err != nil {
			return nil, fmt.Errorf("locality: %s: %w", quadrantNames[q], err)
		}
		rails = append(rails, pdn.Rail{Name: quadrantNames[q], Net: net})
	}
	return pdn.NewGraph(rails, nil)
}

// stepSupply advances the supply one cycle on rep's power, writing the
// chip-wide voltage to volts[0] and quadrant q's to volts[1+q]: the
// nominal rail minus the global droop minus the local droop.
func stepSupply(gs *pdn.GraphSimulator, rep *power.CycleReport, vNom float64, volts *[1 + numQuadrants]float64) {
	var cur [1 + numQuadrants]float64
	cur[0] = rep.Current
	for q, p := range splitQuadrants(&rep.PerUnit) {
		cur[1+q] = p / vNom
	}
	gs.Step(cur[:], volts[:])
	g := volts[0]
	for q := 1; q < len(volts); q++ {
		volts[q] = vNom - (vNom - g) - (vNom - volts[q])
	}
}

// LocalityRow summarizes one quadrant under the localized PDN model.
type LocalityRow struct {
	Quadrant    string
	MinV        float64
	MaxV        float64
	Emergencies uint64
}

// LocalityResult is the Section 6 locality study: chip-wide (uniform)
// voltage versus per-quadrant voltage under the same run.
type LocalityResult struct {
	Workload          string
	GlobalMinV        float64
	GlobalMaxV        float64
	GlobalEmergencies uint64
	Rows              []LocalityRow
	VMin, VMax        float64
}

// Locality runs the stressmark through the quadrant-level PDN model, the
// paper's final future-work item (Section 6): "improving the locality at
// which we model dI/dt effects. Local power supply swings in different
// chip quadrants can be an important issue to consider, in addition to
// the more global effects."
//
// The supply is one uncoupled rail graph: the chip's own network (the
// package, driven by total chip current) plus one smaller network per
// floorplan quadrant (the local grid segment feeding that region, driven
// by the quadrant's own current). A quadrant sees the nominal rail minus
// both droops. The local grids expose emergencies a uniform model
// averages away: a quadrant whose units swing together dips further than
// the chip-wide mean.
func Locality(cfg Config) (*LocalityResult, error) {
	cfg = cfg.withDefaults()
	return memoized("locality", cfg, func() (*LocalityResult, error) {
		// The system supplies the measured envelope, the chip network and
		// the machine; the loop below steps the machine itself so every
		// cycle's per-unit power reaches the quadrant grids.
		sys, err := core.NewSystem(cfg.stressProgram(), cfg.baseOptions(2))
		if err != nil {
			return nil, err
		}
		defer sys.Close()
		iMin, iMax := sys.Envelope()
		peaks := sys.Power.Params().Peak
		supply, err := localitySupply(sys.Net, &peaks, iMin, iMax)
		if err != nil {
			return nil, err
		}
		gs := supply.NewSimulator()
		defer gs.Release()
		// The emergency band is the chip network's: the logic does not
		// care which grid segment sagged.
		vNom, vMin, vMax := sys.Net.Params().VNominal, sys.Net.VMin(), sys.Net.VMax()
		r := &LocalityResult{Workload: "stressmark", VMin: vMin, VMax: vMax, GlobalMinV: math.Inf(1), GlobalMaxV: math.Inf(-1)}
		rows := make([]LocalityRow, numQuadrants)
		for q := range rows {
			rows[q] = LocalityRow{Quadrant: quadrantNames[q], MinV: math.Inf(1), MaxV: math.Inf(-1)}
		}
		stream := cfg.Telemetry.Stream("locality quadrants")
		var act cpu.Activity
		var rep power.CycleReport
		var volts [1 + numQuadrants]float64
		for i := uint64(0); i < cfg.Cycles; i++ {
			done := sys.CPU.StepInto(&act)
			sys.Power.StepInto(&act, power.Phantom{}, &rep)
			stepSupply(gs, &rep, vNom, &volts)
			g, locals := volts[0], volts[1:]
			if stream.Enabled() {
				stream.Emit(i, telemetry.KindVoltage, 0, g)
				for q, v := range locals {
					stream.Emit(i, telemetry.KindQuadrantVoltage, int32(q), v)
				}
			}
			if i >= cfg.Warmup {
				r.GlobalMinV = math.Min(r.GlobalMinV, g)
				r.GlobalMaxV = math.Max(r.GlobalMaxV, g)
				if g < vMin || g > vMax {
					r.GlobalEmergencies++
				}
				for q, v := range locals {
					rows[q].MinV = math.Min(rows[q].MinV, v)
					rows[q].MaxV = math.Max(rows[q].MaxV, v)
					if v < vMin || v > vMax {
						rows[q].Emergencies++
					}
				}
			}
			if done {
				break
			}
		}
		r.Rows = rows
		return r, nil
	})
}

func renderLocality(cfg Config, w io.Writer) error {
	r, err := Locality(cfg)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "Section 6 extension: per-quadrant (localized) dI/dt modeling — stressmark at 200% impedance",
		Headers: []string{"supply view", "minV", "maxV", "emergencies"},
	}
	t.AddRow("chip-wide (uniform model)",
		fmt.Sprintf("%.4f", r.GlobalMinV), fmt.Sprintf("%.4f", r.GlobalMaxV),
		fmt.Sprintf("%d", r.GlobalEmergencies))
	for _, row := range r.Rows {
		t.AddRow("quadrant: "+row.Quadrant,
			fmt.Sprintf("%.4f", row.MinV), fmt.Sprintf("%.4f", row.MaxV),
			fmt.Sprintf("%d", row.Emergencies))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("emergency band [%.3f, %.3f] V applies to every view", r.VMin, r.VMax),
		"quadrants whose units swing together dip beyond what the uniform model reports — the locality the paper flags as future work")
	t.Render(w)
	return nil
}
