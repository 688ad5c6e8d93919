package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"didt/internal/cpu"
	"didt/internal/isa"
	"didt/internal/pdn"
	"didt/internal/power"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// writeLocalityResult records every LocalityResult field, floats as their
// IEEE-754 bits so the golden pins the study bit for bit.
func writeLocalityResult(w *bytes.Buffer, r *LocalityResult) {
	b := math.Float64bits
	fmt.Fprintf(w, "workload %s band %016x %016x\n", r.Workload, b(r.VMin), b(r.VMax))
	fmt.Fprintf(w, "global %016x %016x emergencies %d\n", b(r.GlobalMinV), b(r.GlobalMaxV), r.GlobalEmergencies)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "quadrant %s %016x %016x emergencies %d\n", row.Quadrant, b(row.MinV), b(row.MaxV), row.Emergencies)
	}
}

// TestLocalityGolden pins the Section 6 locality study at the full-size
// configuration: the quadrant names and order, the emergency band, and
// every voltage extreme and emergency count. Regenerate with
// `go test ./internal/experiments -run TestLocalityGolden -update` only
// after a deliberate change to the study's results.
func TestLocalityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-size stressmark")
	}
	r, err := Locality(Default())
	if err != nil {
		t.Fatal(err)
	}
	// The study's point: a quadrant whose units swing together dips
	// below what the chip-wide network reports.
	deeper := false
	for _, row := range r.Rows {
		deeper = deeper || row.MinV < r.GlobalMinV
	}
	if !deeper {
		t.Errorf("no quadrant dips below the chip-wide minimum %.4f V", r.GlobalMinV)
	}
	var got bytes.Buffer
	writeLocalityResult(&got, r)
	path := filepath.Join("testdata", "locality.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("locality differs from golden:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// newLocalitySupply builds the study's supply for the default power model
// on an 11-50 A chip envelope.
func newLocalitySupply(t *testing.T) (*pdn.Graph, *power.Model) {
	t.Helper()
	pm := power.New(power.Params{}, cpu.DefaultConfig())
	global, err := pdn.Calibrate(pdn.Params{IFloor: 30.5}, 11, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	peaks := pm.Params().Peak
	g, err := localitySupply(global, &peaks, 11, 50)
	if err != nil {
		t.Fatal(err)
	}
	return g, pm
}

// stepLocality advances the supply one cycle on rep's power and returns
// the chip-wide voltage and each quadrant's.
func stepLocality(gs *pdn.GraphSimulator, rep power.CycleReport, vNom float64) (float64, []float64) {
	var volts [1 + numQuadrants]float64
	stepSupply(gs, &rep, vNom, &volts)
	return volts[0], volts[1:]
}

func TestUnitQuadrantPartition(t *testing.T) {
	var counts [numQuadrants]int
	distributed := 0
	for u := power.Unit(0); u < power.NumUnits; u++ {
		if q := unitQuadrant(u); q >= 0 {
			counts[q]++
		} else {
			distributed++
		}
	}
	if distributed != 1 || unitQuadrant(power.UnitClock) >= 0 {
		t.Errorf("expected exactly the clock tree to be distributed, got %d units", distributed)
	}
	for q, n := range counts {
		if n == 0 {
			t.Errorf("quadrant %s has no units", quadrantNames[q])
		}
	}
}

func TestQuadrantNames(t *testing.T) {
	g, _ := newLocalitySupply(t)
	want := []string{"global", "front-end", "execute", "memory", "window"}
	if g.Size() != len(want) {
		t.Fatalf("supply has %d rails, want %d", g.Size(), len(want))
	}
	for i, name := range want {
		if got := g.Rail(i).Name; got != name {
			t.Errorf("rail %d named %q, want %q", i, got, name)
		}
	}
}

func TestQuiescentVoltagesNearNominal(t *testing.T) {
	g, pm := newLocalitySupply(t)
	gs := g.NewSimulator()
	defer gs.Release()
	// Idle cycles: every voltage sits near (slightly above) nominal, since
	// idle current is below each regulator reference.
	for i := 0; i < 500; i++ {
		v, locals := stepLocality(gs, pm.Step(&cpu.Activity{}, power.Phantom{}), 1)
		if v < 0.99 || v > 1.05 {
			t.Fatalf("cycle %d: global voltage %g implausible", i, v)
		}
		for q, lv := range locals {
			if lv < 0.98 || lv > 1.06 {
				t.Fatalf("cycle %d: quadrant %s voltage %g implausible", i, quadrantNames[q], lv)
			}
		}
	}
}

func TestLocalSwingExceedsGlobalForClusteredActivity(t *testing.T) {
	g, pm := newLocalitySupply(t)
	gs := g.NewSimulator()
	defer gs.Release()
	cfg := cpu.DefaultConfig()
	// Alternate every half resonant period of the local grid between an
	// execution-heavy burst and idle: the execute quadrant must see deeper
	// dips than the chip-wide voltage indicates.
	period := int(pdn.DefaultClockHz / localResonantHz) // 20 cycles
	minGlobal, minExec := 2.0, 2.0
	for i := 0; i < 4000; i++ {
		var act cpu.Activity
		if i%period < period/2 {
			act.Issued = cfg.IssueWidth
			act.IssuedByClass[isa.ClassIntALU] = cfg.IntALU
			act.IssuedByClass[isa.ClassFPAdd] = cfg.FPALU
			act.RegReads = 16
			act.RegWrites = 8
		}
		v, locals := stepLocality(gs, pm.Step(&act, power.Phantom{}), 1)
		if i < 1000 {
			continue // build up
		}
		minGlobal = math.Min(minGlobal, v)
		minExec = math.Min(minExec, locals[1])
	}
	if minExec >= minGlobal {
		t.Errorf("execute-quadrant dip %.4f should undercut the global dip %.4f", minExec, minGlobal)
	}
}

func TestBandMatchesGlobal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the stressmark")
	}
	r, err := Locality(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// The chip network keeps the full tolerance; the local grids get only
	// localShare of it, so their band would be narrower.
	lo, hi := pdn.DefaultVNominal*(1-pdn.DefaultTolerance), pdn.DefaultVNominal*(1+pdn.DefaultTolerance)
	if r.VMin != lo || r.VMax != hi {
		t.Errorf("band [%g, %g] must be the chip network's [%g, %g]", r.VMin, r.VMax, lo, hi)
	}
}

func TestBadEnvelopeRejected(t *testing.T) {
	global, err := pdn.Calibrate(pdn.Params{IFloor: 30.5}, 11, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	peaks := power.DefaultUnitPowers()
	if _, err := localitySupply(global, &peaks, 50, 11); err == nil {
		t.Error("want error for inverted envelope")
	}
}
