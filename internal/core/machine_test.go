package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"didt/internal/cpu"
	"didt/internal/isa"
	"didt/internal/power"
	"didt/internal/workload"
)

// machineGoldenCycles is each machine run's budget: long enough to stream
// every program's code in from cold memory and reach its steady loop.
const machineGoldenCycles = 20_000

// machineSchedule is the actuator input of one cycle in the driven pass:
// gating, phantom firing, and a pipeline flush (penalty < 0 means none).
func machineSchedule(i int) (g cpu.Gating, ph power.Phantom, flush int) {
	// Gate one rotating combination of FUs/DL1/IL1 for 40 cycles in every
	// 500, phantom-fire another for 30 cycles in every 700, and flush with a
	// rotating penalty every 1,009 cycles.
	if i%500 < 40 {
		m := i/500%7 + 1
		g = cpu.Gating{FUs: m&1 != 0, DL1: m&2 != 0, IL1: m&4 != 0}
	}
	if i%700 >= 350 && i%700 < 380 {
		m := i/700%7 + 1
		ph = power.Phantom{FUs: m&1 != 0, DL1: m&2 != 0, IL1: m&4 != 0}
	}
	flush = -1
	if i%1009 == 1008 {
		flush = i / 1009 % 12
	}
	return g, ph, flush
}

// runMachine steps a fresh core and power model over prog for
// machineGoldenCycles cycles (or until the program retires) and renders
// the run: every Stats field, the total energy's bits, and a SHA-256 over
// every cycle's Current and PerUnit bits. driven applies machineSchedule.
func runMachine(w *bytes.Buffer, name string, prog isa.Program, driven bool) error {
	c, err := cpu.New(cpu.Config{}, prog)
	if err != nil {
		return err
	}
	pm := power.New(power.Params{}, c.Config())
	h := sha256.New()
	var buf [8 * (1 + power.NumUnits)]byte
	// One activity record and one report serve every cycle, as in the
	// engine, so a field a step leaves unwritten would show here.
	var act cpu.Activity
	var rep power.CycleReport
	for i := 0; i < machineGoldenCycles; i++ {
		var ph power.Phantom
		if driven {
			var g cpu.Gating
			var flush int
			g, ph, flush = machineSchedule(i)
			c.SetGating(g)
			if flush >= 0 {
				c.Flush(flush)
			}
		}
		done := c.StepInto(&act)
		pm.StepInto(&act, ph, &rep)
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(rep.Current))
		for u, p := range rep.PerUnit {
			binary.LittleEndian.PutUint64(buf[8*(1+u):], math.Float64bits(p))
		}
		h.Write(buf[:])
		if done {
			break
		}
	}
	if err := c.Err(); err != nil {
		return err
	}
	fmt.Fprintf(w, "== %s driven=%v\n", name, driven)
	fmt.Fprintf(w, "stats %+v\n", c.Stats())
	fmt.Fprintf(w, "energy %016x cycles %d\n", math.Float64bits(pm.TotalEnergy()), pm.Cycles())
	fmt.Fprintf(w, "trace %x\n", h.Sum(nil))
	return nil
}

// TestMachineGolden pins the machine half of the loop — the out-of-order
// core and the power model, without the PDN — bit for bit on every
// benchmark profile and the stressmark, free-running and under a fixed
// gating/phantom/flush schedule that reaches the gated paths of issue,
// fetch and commit. Regenerate with `go test ./internal/core -run
// TestMachineGolden -update` only after a deliberate change to the
// machine's results.
func TestMachineGolden(t *testing.T) {
	type prog struct {
		name string
		prog isa.Program
	}
	var progs []prog
	for _, name := range workload.Names() {
		p, err := workload.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{name, workload.GenerateCached(p)})
	}
	progs = append(progs, prog{"stressmark", workload.StressmarkCached(workload.StressmarkParams{})})

	var got bytes.Buffer
	for _, driven := range []bool{false, true} {
		for _, p := range progs {
			if err := runMachine(&got, p.name, p.prog, driven); err != nil {
				t.Fatalf("%s driven=%v: %v", p.name, driven, err)
			}
		}
	}
	path := filepath.Join("testdata", "machine.golden")
	if *updateSpine {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gl) != len(wl) {
		t.Fatalf("machine runs render %d lines, golden %d", len(gl), len(wl))
	}
	for i := range gl {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("machine differs from golden:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}
