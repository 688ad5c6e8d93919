package analysis

import (
	"fmt"
	"go/token"
	"go/types"
)

// PurityRoot names one entry point of the determinism-critical region:
// everything reachable from it must be pure in the sweep sense (no wall
// clock, no global rand, no map-ordered output). Recv selects a method on
// the named type; empty for package-level functions. Label is the short
// name used in diagnostics.
type PurityRoot struct {
	Pkg, Recv, Name, Label string
}

// defaultPurityRoots are the contract's entry points on the real tree:
// the per-cycle kernel, the whole-run entry point, the PDN convolver, the memo
// key, the experiment table (whose runner functions enter the graph
// through value-reference edges), and the result-store entry codec — a
// stored entry must be a pure function of (key, body) or byte-identical
// restart recovery is fiction.
var defaultPurityRoots = []PurityRoot{
	{Pkg: "didt/internal/core", Recv: "System", Name: "StepCycle", Label: "core.StepCycle"},
	{Pkg: "didt/internal/core", Recv: "System", Name: "Run", Label: "core.System.Run"},
	{Pkg: "didt/internal/pdn", Recv: "Network", Name: "ConvolveVoltages", Label: "pdn.ConvolveVoltages"},
	{Pkg: "didt/internal/pdn", Recv: "GraphSimulator", Name: "Step", Label: "pdn.GraphSimulator.Step"},
	{Pkg: "didt/internal/spec", Recv: "RunSpec", Name: "Key", Label: "spec.Key"},
	{Pkg: "didt/internal/experiments", Recv: "", Name: "Registry", Label: "experiments.Registry"},
	{Pkg: "didt/internal/store", Recv: "", Name: "EncodeEntry", Label: "store.EncodeEntry"},
	{Pkg: "didt/internal/store", Recv: "", Name: "DecodeEntry", Label: "store.DecodeEntry"},
}

// Purity is the interprocedural determinism analyzer: where the
// determinism analyzer polices a fixed package list file by file, purity
// builds the call graph and walks everything reachable from the
// simulation roots — wherever it lives, including packages the static
// scope list has never heard of. A root whose package is absent from the
// loaded tree is skipped (fixture trees), so the real-tree presence of
// every default root is pinned by a test instead.
var Purity = NewPurity(defaultPurityRoots)

// NewPurity builds a purity analyzer rooted at the given entry points;
// fixtures use instances rooted inside testdata trees.
func NewPurity(roots []PurityRoot) *Analyzer {
	return &Analyzer{
		Name: "purity",
		Doc: "prove every function reachable from the simulation entry points " +
			"free of wall-clock, global-rand, and map-ordered output",
		RunProgram: func(pass *ProgramPass) error { return runPurity(pass, roots) },
	}
}

// CheckDefaultPurityRoots verifies every default root resolves against a
// loader rooted at the real tree — the guard against a renamed entry
// point silently shrinking the proven region (runPurity tolerates absent
// packages because fixture trees lack them).
func CheckDefaultPurityRoots(l *Loader) error {
	for _, r := range defaultPurityRoots {
		if _, err := l.Load(r.Pkg); err != nil {
			return fmt.Errorf("purity root %s: %w", r.Label, err)
		}
	}
	prog := buildProgram(l)
	for _, r := range defaultPurityRoots {
		if prog.Lookup(r.Pkg, r.Recv, r.Name) == nil {
			return fmt.Errorf("purity root %s: %s.%s not found in %s", r.Label, r.Recv, r.Name, r.Pkg)
		}
	}
	return nil
}

func runPurity(pass *ProgramPass, roots []PurityRoot) error {
	// Pull the root packages in before the graph is built; absent ones
	// (fixture trees without internal/core) are skipped, not errors.
	present := make([]PurityRoot, 0, len(roots))
	for _, r := range roots {
		if _, err := pass.Load(r.Pkg); err == nil {
			present = append(present, r)
		}
	}
	prog := pass.Program()
	checked := map[*types.Func]bool{}
	for _, r := range present {
		fn := prog.Lookup(r.Pkg, r.Recv, r.Name)
		if fn == nil {
			return fmt.Errorf("purity root %s (%s.%s) not found in loaded package %s", r.Label, r.Recv, r.Name, r.Pkg)
		}
		for _, fi := range prog.Reachable([]*types.Func{fn}) {
			if checked[fi.Fn] {
				continue
			}
			checked[fi.Fn] = true
			report := func(pos token.Pos, format string, args ...interface{}) {
				pass.Reportf(pos, "%s [in %s, reachable from %s]",
					fmt.Sprintf(format, args...), fi.Fn.FullName(), r.Label)
			}
			checkDeterminismIn(fi.Pkg.Info, report, fi.Decl)
		}
	}
	return nil
}
