package power

import (
	"math"
	"testing"

	"didt/internal/cpu"
	"didt/internal/isa"
)

func scopePartition() []ScopeMask {
	return []ScopeMask{ScopeFU.Mask(), ScopeDL1.Mask(), ScopeIL1.Mask(), ScopeUncore.Mask()}
}

func TestScopeOfMatchesGatingClassify(t *testing.T) {
	// The FU/DL1/IL1 scopes must contain exactly the units classify()
	// hard-gates for that group — the rail partition and the actuator's
	// reach are the same sets by construction.
	for u := Unit(0); u < NumUnits; u++ {
		wantFU := classify(u, true, false, false) == scopeGated
		wantDL1 := classify(u, false, true, false) == scopeGated
		wantIL1 := classify(u, false, false, true) == scopeGated
		s := scopeOf[u]
		if (s == ScopeFU) != wantFU || (s == ScopeDL1) != wantDL1 || (s == ScopeIL1) != wantIL1 {
			t.Errorf("unit %v: scope %v disagrees with classify (fu=%v dl1=%v il1=%v)",
				u, s, wantFU, wantDL1, wantIL1)
		}
	}
}

func TestScopeByName(t *testing.T) {
	for i, name := range ScopeNames() {
		s, ok := ScopeByName(name)
		if !ok || s != Scope(i) {
			t.Errorf("ScopeByName(%q) = %v,%v", name, s, ok)
		}
	}
	if _, ok := ScopeByName("l3"); ok {
		t.Error("unknown scope name resolved")
	}
}

// TestScopeCurrentsPartitionCycle: the per-scope split must account for
// every watt of the cycle report — the sum of scope currents equals the
// report's total current.
func TestScopeCurrentsPartitionCycle(t *testing.T) {
	m := New(Params{}, cpu.DefaultConfig())
	var act cpu.Activity
	act.Fetched = 4
	act.Dispatched = 4
	act.Issued = 3
	act.Completed = 3
	act.ICacheAccess = 1
	act.DCacheAccess = 2
	act.RUUOccupancy = 40
	act.LSQOccupancy = 10
	act.RegReads = 6
	act.RegWrites = 3
	act.IssuedByClass[isa.ClassIntALU] = 2
	act.IssuedByClass[isa.ClassLoad] = 1
	for cyc := 0; cyc < 50; cyc++ {
		r := m.Step(&act, Phantom{})
		scoped := make([]float64, NumScopes)
		m.ScopeCurrents(&r, scoped)
		var sum float64
		for _, c := range scoped {
			sum += c
		}
		if math.Abs(sum-r.Current) > 1e-12*r.Current {
			t.Fatalf("cycle %d: scope currents sum %.15g != total %.15g", cyc, sum, r.Current)
		}
	}
}

// TestScopedEnvelopesPartition: per-scope min/max/floor/ceiling summed
// over the single scopes must reproduce the AllScopes figures.
func TestScopedEnvelopesPartition(t *testing.T) {
	m := New(Params{}, cpu.DefaultConfig())
	sumOver := func(f func(ScopeMask) float64) float64 {
		var s float64
		for _, mask := range scopePartition() {
			s += f(mask)
		}
		return s
	}
	close := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("%s: partition sum %.15g, whole-chip %.15g", name, got, want)
		}
	}
	close("min", sumOver(m.MinCurrent), m.MinCurrent(AllScopes))
	close("max", sumOver(m.MaxCurrent), m.MaxCurrent(AllScopes))
	for _, gate := range []struct{ fus, dl1, il1 bool }{
		{true, false, false}, {true, true, false}, {true, true, true},
	} {
		close("floor", sumOver(func(mk ScopeMask) float64 {
			return m.GatedFloorCurrent(mk, gate.fus, gate.dl1, gate.il1)
		}), m.GatedFloorCurrent(AllScopes, gate.fus, gate.dl1, gate.il1))
		close("ceil", sumOver(func(mk ScopeMask) float64 {
			return m.PhantomCeilingCurrent(mk, gate.fus, gate.dl1, gate.il1)
		}), m.PhantomCeilingCurrent(AllScopes, gate.fus, gate.dl1, gate.il1))
	}
}

// TestScopedGatingAuthority: gating FUs must drop the FU rail's floor far
// below its sustained level while leaving the uncore rail's draw above its
// idle — the per-rail restatement of Section 5.2's leverage argument.
func TestScopedGatingAuthority(t *testing.T) {
	m := New(Params{}, cpu.DefaultConfig())
	fuFloor := m.GatedFloorCurrent(ScopeFU.Mask(), true, false, false)
	fuRun := m.GatedFloorCurrent(ScopeFU.Mask(), false, false, true)
	if fuFloor >= fuRun/2 {
		t.Errorf("gating FUs should collapse the FU rail: gated %.3g vs running %.3g", fuFloor, fuRun)
	}
	uncore := m.GatedFloorCurrent(ScopeUncore.Mask(), true, false, false)
	if uncore <= m.MinCurrent(ScopeUncore.Mask()) {
		t.Errorf("uncore keeps running under FU gating: floor %.3g <= idle %.3g",
			uncore, m.MinCurrent(ScopeUncore.Mask()))
	}
	// Phantom-firing a scope must raise that rail's ceiling above idle.
	dl1Ceil := m.PhantomCeilingCurrent(ScopeDL1.Mask(), false, true, false)
	if dl1Ceil <= m.MinCurrent(ScopeDL1.Mask()) {
		t.Errorf("phantom DL1 ceiling %.3g not above idle", dl1Ceil)
	}
}

func BenchmarkScopeCurrents(b *testing.B) {
	m := New(Params{}, cpu.DefaultConfig())
	var act cpu.Activity
	act.Issued = 3
	r := m.Step(&act, Phantom{})
	dst := make([]float64, NumScopes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScopeCurrents(&r, dst)
	}
}
