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

type namedProgram struct {
	name string
	prog isa.Program
}

// machinePrograms returns every benchmark profile's program, then the
// stressmark's.
func machinePrograms(t *testing.T) []namedProgram {
	var progs []namedProgram
	for _, name := range workload.Names() {
		p, err := workload.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, namedProgram{name, workload.GenerateCached(p)})
	}
	return append(progs, namedProgram{"stressmark", workload.StressmarkCached(workload.StressmarkParams{})})
}

// TestMachineGolden pins the machine half of the loop — the out-of-order
// core and the power model, without the PDN — bit for bit on every
// benchmark profile and the stressmark, free-running and under a fixed
// gating/phantom/flush schedule that reaches the gated paths of issue,
// fetch and commit. Regenerate with `go test ./internal/core -run
// TestMachineGolden -update` only after a deliberate change to the
// machine's results.
func TestMachineGolden(t *testing.T) {
	progs := machinePrograms(t)
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

// machineCycle is one cycle of a reference machine run.
type machineCycle struct {
	act cpu.Activity
	rep power.CycleReport
}

// machineRef is a reference machine run: every cycle, then the run's
// aggregates.
type machineRef struct {
	cycles []machineCycle
	stats  cpu.Stats
	energy float64
	err    error
}

// schedule is one cycle's actuator input, as machineSchedule gives it.
type schedule func(i int) (cpu.Gating, power.Phantom, int)

// stepMachineRef runs prog through the plain per-cycle loop, a core step
// then a power step, for at most n cycles under sched.
func stepMachineRef(t *testing.T, prog isa.Program, sched schedule, n int) *machineRef {
	c, err := cpu.New(cpu.Config{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	pm := power.New(power.Params{}, c.Config())
	ref := &machineRef{}
	var mc machineCycle
	for i := 0; i < n; i++ {
		g, ph, flush := sched(i)
		c.SetGating(g)
		if flush >= 0 {
			c.Flush(flush)
		}
		done := c.StepInto(&mc.act)
		pm.StepInto(&mc.act, ph, &mc.rep)
		ref.cycles = append(ref.cycles, mc)
		if done {
			break
		}
	}
	ref.stats, ref.energy, ref.err = c.Stats(), pm.TotalEnergy(), c.Err()
	return ref
}

// checkSkipDead runs prog as stepMachineRef does, but before stepping
// each cycle, once its gating and flush are applied, tries to skip it and
// the dead cycles after it through skipDead under its phantom, bounded by
// the cycles left and by the next change of sched's gating or phantom or
// its next flush. It requires the run to be == to ref: each cycle's
// Activity (a skipped cycle's is the last stepped one's), Current and
// PerUnit bits, the final Stats, the TotalEnergy bits and the error. It
// returns the cycles skipped.
func checkSkipDead(t *testing.T, name string, prog isa.Program, sched schedule, ref *machineRef) uint64 {
	t.Helper()
	n := len(ref.cycles)
	// span[i]: the cycles from i on that share cycle i's gating and phantom
	// with no flush after i, so a skip at cycle i may cover them.
	span := make([]int, n+1)
	for i := n - 1; i >= 0; i-- {
		span[i] = 1
		g, ph, _ := sched(i)
		if g2, ph2, flush := sched(i + 1); g2 == g && ph2 == ph && flush < 0 {
			span[i] += span[i+1]
		}
	}
	c, err := cpu.New(cpu.Config{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	pm := power.New(power.Params{}, c.Config())
	var act cpu.Activity
	var rep power.CycleReport
	var skipped uint64
	check := func(i int) bool {
		want := &ref.cycles[i]
		if act != want.act {
			t.Errorf("%s: cycle %d activity %+v, stepping %+v", name, i, act, want.act)
			return false
		}
		if math.Float64bits(rep.Current) != math.Float64bits(want.rep.Current) {
			t.Errorf("%s: cycle %d current %v, stepping %v", name, i, rep.Current, want.rep.Current)
			return false
		}
		for u, p := range rep.PerUnit {
			if math.Float64bits(p) != math.Float64bits(want.rep.PerUnit[u]) {
				t.Errorf("%s: cycle %d %v power %v, stepping %v", name, i, power.Unit(u), p, want.rep.PerUnit[u])
				return false
			}
		}
		return true
	}
	i := 0
	for i < n {
		g, ph, flush := sched(i)
		c.SetGating(g)
		if flush >= 0 {
			c.Flush(flush)
		}
		if k := skipDead(c, pm, &rep, ph, uint64(span[i])); k > 0 {
			var dead cpu.Activity
			if c.DeadActivity(&dead); dead != act {
				t.Errorf("%s: cycle %d: skipped a dead cycle of activity %+v after one of %+v", name, i, dead, act)
				return skipped
			}
			for skipped += k; k > 0; i, k = i+1, k-1 {
				if !check(i) {
					return skipped
				}
			}
			continue
		}
		done := c.StepInto(&act)
		pm.StepInto(&act, ph, &rep)
		if !check(i) {
			return skipped
		}
		if i++; done {
			break
		}
	}
	if i != n {
		t.Errorf("%s: ran %d cycles, stepping %d", name, i, n)
	}
	if got := c.Stats(); got != ref.stats {
		t.Errorf("%s: stats\n %+v\nstepping\n %+v", name, got, ref.stats)
	}
	if got := pm.TotalEnergy(); math.Float64bits(got) != math.Float64bits(ref.energy) {
		t.Errorf("%s: energy %v, stepping %v", name, got, ref.energy)
	}
	if got := pm.Cycles(); got != uint64(n) {
		t.Errorf("%s: power model accounted %d cycles, stepping %d", name, got, n)
	}
	if fmt.Sprint(c.Err()) != fmt.Sprint(ref.err) {
		t.Errorf("%s: error %v, stepping %v", name, c.Err(), ref.err)
	}
	return skipped
}

// TestSkipDeadMatchesStepping holds the dead-cycle skip (cpu.SkipDead with
// power.Model.Repeat, through skipDead) to the plain per-cycle loop, on
// every benchmark profile and the stressmark, free-running and under
// machineSchedule, plus a core whose fetch is gated from its first cycle,
// which only waits until the wedge guard fails it.
func TestSkipDeadMatchesStepping(t *testing.T) {
	free := func(int) (cpu.Gating, power.Phantom, int) { return cpu.Gating{}, power.Phantom{}, -1 }
	for _, driven := range []bool{false, true} {
		sched := free
		if driven {
			sched = machineSchedule
		}
		var skipped, cycles uint64
		for _, p := range machinePrograms(t) {
			ref := stepMachineRef(t, p.prog, sched, machineGoldenCycles)
			skipped += checkSkipDead(t, fmt.Sprintf("%s driven=%v", p.name, driven), p.prog, sched, ref)
			cycles += uint64(len(ref.cycles))
		}
		if skipped == 0 {
			t.Errorf("driven=%v: no cycle was skipped", driven)
		}
		t.Logf("driven=%v: skipped %d of %d cycles", driven, skipped, cycles)
	}

	fetchGated := func(int) (cpu.Gating, power.Phantom, int) { return cpu.Gating{IL1: true}, power.Phantom{}, -1 }
	prog := machinePrograms(t)[0].prog
	ref := stepMachineRef(t, prog, fetchGated, machineGoldenCycles)
	if ref.err == nil {
		t.Fatal("a core that never fetches did not wedge")
	}
	if checkSkipDead(t, "fetch gated", prog, fetchGated, ref) == 0 {
		t.Error("fetch gated: no cycle was skipped")
	}
}
