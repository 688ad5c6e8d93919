package power

// Delivery scopes partition the power-modeled units into the groups the
// multi-rail PDN can place on separate rails. The partition follows the
// actuator's gating scopes — FU, DL1, IL1 — so per-rail current naturally
// lines up with what gate/phantom-fire actuation can reach, plus an
// "uncore" scope for everything else (clock tree, rename, window, LSQ,
// register file, L2, result bus). The single-rail model is the degenerate
// partition where one rail owns every scope.

// Scope identifies one delivery scope.
type Scope int

const (
	ScopeFU Scope = iota
	ScopeDL1
	ScopeIL1
	ScopeUncore
	NumScopes
)

var scopeNames = [NumScopes]string{"fu", "dl1", "il1", "uncore"}

// String names the scope.
func (s Scope) String() string {
	if s >= 0 && int(s) < len(scopeNames) {
		return scopeNames[s]
	}
	return "scope(?)"
}

// ScopeNames lists the scope names in index order; the spec layer uses it
// for rail-binding validation and did-you-mean hints.
func ScopeNames() []string { return append([]string(nil), scopeNames[:]...) }

// ScopeByName resolves a scope name (as used in spec rail bindings).
func ScopeByName(name string) (Scope, bool) {
	for i, n := range scopeNames {
		if n == name {
			return Scope(i), true
		}
	}
	return 0, false
}

// scopeOf maps every unit to its delivery scope. The FU/DL1/IL1 rows match
// classify()'s hard-gating cases exactly; everything else is uncore.
var scopeOf = [NumUnits]Scope{
	UnitClock:     ScopeUncore,
	UnitFetch:     ScopeIL1,
	UnitBpred:     ScopeIL1,
	UnitRename:    ScopeUncore,
	UnitWindow:    ScopeUncore,
	UnitLSQ:       ScopeUncore,
	UnitRegFile:   ScopeUncore,
	UnitL1I:       ScopeIL1,
	UnitL1D:       ScopeDL1,
	UnitL2:        ScopeUncore,
	UnitIntALU:    ScopeFU,
	UnitIntMult:   ScopeFU,
	UnitFPALU:     ScopeFU,
	UnitFPMult:    ScopeFU,
	UnitResultBus: ScopeUncore,
}

// ScopeOf returns the delivery scope a unit belongs to.
func ScopeOf(u Unit) Scope { return scopeOf[u] }

// ScopeMask is a set of scopes — the scopes one rail owns.
type ScopeMask uint8

// Mask returns the single-scope mask.
func (s Scope) Mask() ScopeMask { return 1 << uint(s) }

// AllScopes is the full partition (the single-rail degenerate case).
const AllScopes = ScopeMask(1<<NumScopes) - 1

// Has reports whether the mask contains the scope.
func (m ScopeMask) Has(s Scope) bool { return m&s.Mask() != 0 }

// ScopeCurrents splits one cycle's current draw across the delivery
// scopes: dst[s] receives scope s's amperes. dst must have length >=
// NumScopes. The multi-rail closed loop calls this every cycle, so it
// allocates nothing.
//
//didt:hotpath
func (m *Model) ScopeCurrents(r *CycleReport, dst []float64) {
	_ = dst[NumScopes-1]
	for s := 0; s < int(NumScopes); s++ {
		dst[s] = 0
	}
	for u := Unit(0); u < NumUnits; u++ {
		dst[scopeOf[u]] += r.PerUnit[u]
	}
	inv := 1 / m.p.VNominal
	for s := 0; s < int(NumScopes); s++ {
		dst[s] *= inv
	}
}
