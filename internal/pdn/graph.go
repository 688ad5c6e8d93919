// Rail graph: the multi-domain generalization of Network. A Graph holds N
// named delivery domains — each its own calibrated Network with its own
// sampled kernel — plus a cross-coupling matrix that injects a fraction of
// each domain's current transient into its neighbors' convolution inputs:
//
//	eff_i[n] = I_i[n] + sum_{j != i} K[i][j] * (I_j[n] - IFloor_j)
//
// so rail i's voltage is V_i[n] = Vnom_i - sum_k h_i[k]*(eff_i[n-k] -
// IFloor_i). With every rail at its floor the injected transients vanish
// and all rails sit at nominal, exactly like the quiescent single-rail
// network. The single-rail Network is the 1-node graph (SingleRail), and
// on that degenerate graph — or any graph with an all-zero matrix — the
// step and block-convolution paths delegate straight to the underlying
// Network, so the output is bit-identical (`==`) to using the Network
// directly, not merely close.
package pdn

import "fmt"

// Rail is one named delivery domain of a Graph.
type Rail struct {
	Name string
	Net  *Network
}

// Graph is an immutable set of rails plus their cross-coupling matrix.
// Like Network it is safe for concurrent use; GraphSimulator carries the
// per-run mutable state.
type Graph struct {
	rails    []Rail
	coupling [][]float64 // coupling[to][from]; nil when the graph is uncoupled
	floors   []float64   // per-rail IFloor, hoisted out of the step loop
	coupled  bool        // any nonzero off-diagonal coefficient
}

// NewGraph builds a rail graph. coupling may be nil (independent rails) or
// an NxN matrix where coupling[i][j] is the fraction of rail j's current
// transient injected into rail i's input; the diagonal must be zero and
// every coefficient must lie in [0, 1).
func NewGraph(rails []Rail, coupling [][]float64) (*Graph, error) {
	if len(rails) == 0 {
		return nil, fmt.Errorf("pdn: graph needs at least one rail")
	}
	seen := make(map[string]bool, len(rails))
	floors := make([]float64, len(rails))
	for i, r := range rails {
		if r.Name == "" {
			return nil, fmt.Errorf("pdn: rail %d has no name", i)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("pdn: duplicate rail name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Net == nil {
			return nil, fmt.Errorf("pdn: rail %q has no network", r.Name)
		}
		floors[i] = r.Net.params.IFloor
	}
	g := &Graph{rails: rails, floors: floors}
	if coupling == nil {
		return g, nil
	}
	if len(coupling) != len(rails) {
		return nil, fmt.Errorf("pdn: coupling matrix has %d rows for %d rails", len(coupling), len(rails))
	}
	for i, row := range coupling {
		if len(row) != len(rails) {
			return nil, fmt.Errorf("pdn: coupling row %d has %d columns for %d rails", i, len(row), len(rails))
		}
		for j, k := range row {
			if i == j && k != 0 {
				return nil, fmt.Errorf("pdn: rail %q couples to itself (k=%g)", rails[i].Name, k)
			}
			if k < 0 || k >= 1 {
				return nil, fmt.Errorf("pdn: coupling %q<-%q coefficient %g outside [0,1)", rails[i].Name, rails[j].Name, k)
			}
			if k != 0 {
				g.coupled = true
			}
		}
	}
	if g.coupled {
		g.coupling = coupling
	}
	return g, nil
}

// SingleRail wraps an existing Network as the 1-node graph; every caller
// of the graph path sees identical behaviour to using the Network alone.
func SingleRail(net *Network) *Graph {
	g, err := NewGraph([]Rail{{Name: "core", Net: net}}, nil)
	if err != nil {
		// Unreachable: one named rail with a non-nil network always passes.
		panic(err)
	}
	return g
}

// Size reports the number of rails.
func (g *Graph) Size() int { return len(g.rails) }

// Rail returns rail i.
func (g *Graph) Rail(i int) Rail { return g.rails[i] }

// Coupled reports whether any cross-coupling coefficient is nonzero.
func (g *Graph) Coupled() bool { return g.coupled }

// CouplingInto returns a copy of row i of the coupling matrix (the
// coefficients of what rail i receives), or nil for an uncoupled graph.
func (g *Graph) CouplingInto(i int) []float64 {
	if !g.coupled {
		return nil
	}
	return append([]float64(nil), g.coupling[i]...)
}

// GraphSimulator advances all rails of a Graph in lockstep, one streaming
// Simulator per rail. Not safe for concurrent use; create one per
// goroutine and Release it when done.
type GraphSimulator struct {
	g       *Graph
	sims    []*Simulator
	eff     []float64 // effective (coupled) inputs for a block, cycle-major
	in, out [MaxBlock]float64
}

// NewSimulator creates a quiescent simulator for every rail.
func (g *Graph) NewSimulator() *GraphSimulator {
	sims := make([]*Simulator, len(g.rails))
	for i, r := range g.rails {
		sims[i] = r.Net.NewSimulator()
	}
	return &GraphSimulator{g: g, sims: sims, eff: make([]float64, MaxBlock*len(g.rails))}
}

// RailSim exposes rail i's underlying streaming simulator. On an uncoupled
// graph stepping it directly is equivalent to stepping the graph.
func (s *GraphSimulator) RailSim(i int) *Simulator { return s.sims[i] }

// Step advances every rail one CPU cycle: currents[i] is rail i's load
// current and volts[i] receives its supply voltage. Both slices must have
// length >= Size(). Zero allocations; on an uncoupled graph each rail's
// output is bit-identical to stepping its Simulator alone.
//
//didt:hotpath
func (s *GraphSimulator) Step(currents, volts []float64) {
	n := len(s.sims)
	s.StepBlock(currents[:n], volts[:n])
}

// StepBlock advances every rail len(currents)/Size() consecutive cycles (1
// to MaxBlock). Both slices are cycle-major: currents[j*Size()+i] is rail
// i's load current on cycle j and volts[j*Size()+i] receives its voltage.
// Coupling is applied cycle by cycle from that cycle's raw currents, then
// each rail runs one Simulator.StepBlock, so the outputs are bit-identical
// to calling Step once per cycle. Zero allocations.
//
//didt:hotpath
func (s *GraphSimulator) StepBlock(currents, volts []float64) {
	if len(s.sims) == 1 {
		// A 1-node graph's cycle-major block is its rail's own block.
		s.sims[0].StepBlock(currents, volts[:len(currents)])
		return
	}
	s.step(currents, volts, nil)
}

// StepModal is StepBlock through each rail's modal form (see
// Simulator.StepModal): volts receives the estimates, cycle-major, and
// eps[i] the bound on rail i's. ExactRail recovers a rail's exact
// voltages of the same block. Zero allocations.
//
//didt:hotpath
func (s *GraphSimulator) StepModal(currents, volts, eps []float64) {
	if len(s.sims) == 1 {
		eps[0] = s.sims[0].StepModal(currents, volts[:len(currents)])
		return
	}
	s.step(currents, volts, eps)
}

// step is StepBlock when eps is nil and StepModal otherwise, for a graph
// of two or more rails.
//
//didt:hotpath
func (s *GraphSimulator) step(currents, volts, eps []float64) {
	n := len(s.sims)
	b := len(currents) / n
	eff := s.effective(currents, b)
	for i, sim := range s.sims {
		in, out := eff[i:i+1], volts[i:i+1]
		if b > 1 {
			// Gather the rail's inputs into one contiguous block.
			in, out = s.in[:b], s.out[:b]
			for j := range in {
				in[j] = eff[j*n+i]
			}
		}
		if eps == nil {
			sim.StepBlock(in, out)
		} else {
			eps[i] = sim.StepModal(in, out)
		}
		if b > 1 {
			for j, v := range out {
				volts[j*n+i] = v
			}
		}
	}
}

// ExactRail overwrites rail i's entries of volts (cycle-major, as
// StepModal wrote it) with the last block's exact voltages: == to
// StepBlock.
//
//didt:hotpath
func (s *GraphSimulator) ExactRail(i int, volts []float64) {
	n := len(s.sims)
	sim := s.sims[i]
	if n == 1 {
		sim.ExactBlock(volts[:sim.blkLen])
		return
	}
	out := s.out[:sim.blkLen]
	sim.ExactBlock(out)
	for j, v := range out {
		volts[j*n+i] = v
	}
}

// effective returns a block's per-rail convolution inputs: the raw
// currents on an uncoupled graph, else each cycle's currents plus the
// transients injected from its neighbours, all built from that cycle's
// raw currents before any rail advances.
//
//didt:hotpath
func (s *GraphSimulator) effective(currents []float64, b int) []float64 {
	g := s.g
	if !g.coupled {
		return currents
	}
	n := len(s.sims)
	eff := s.eff[:len(currents)]
	floors := g.floors
	for j := 0; j < b; j++ {
		cur := currents[j*n : j*n+n]
		for i := range cur {
			c := cur[i]
			for f, k := range g.coupling[i] {
				if k != 0 {
					c += k * (cur[f] - floors[f])
				}
			}
			eff[j*n+i] = c
		}
	}
	return eff
}

// Cycles reports how many cycles have been simulated.
func (s *GraphSimulator) Cycles() int { return s.sims[0].Cycles() }

// Reset returns every rail to the quiescent state.
func (s *GraphSimulator) Reset() {
	for _, sim := range s.sims {
		sim.Reset()
	}
}

// Release returns every rail simulator's history buffer to its network's
// pool. The graph simulator must not be used afterwards.
func (s *GraphSimulator) Release() {
	for _, sim := range s.sims {
		sim.Release()
	}
}

// ConvolveVoltages computes every rail's voltage for entire current traces
// at once: currents[i] and dst[i] are rail i's input and output (dst[i]
// must have length >= len(currents[i])). Uncoupled rails pass their trace
// straight to Network.ConvolveVoltages — byte-identical to the single-rail
// open-loop path — while coupled rails first materialize the effective
// input trace. Rails may have different trace lengths only when uncoupled;
// coupling requires equal lengths.
func (g *Graph) ConvolveVoltages(dst, currents [][]float64) {
	if !g.coupled {
		for i, r := range g.rails {
			r.Net.ConvolveVoltages(dst[i], currents[i])
		}
		return
	}
	for i, r := range g.rails {
		eff := make([]float64, len(currents[i]))
		copy(eff, currents[i])
		for j, k := range g.coupling[i] {
			if k == 0 {
				continue
			}
			floor := g.floors[j]
			for n, cj := range currents[j] {
				eff[n] += k * (cj - floor)
			}
		}
		r.Net.ConvolveVoltages(dst[i], eff)
	}
}
