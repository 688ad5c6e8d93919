package control

import (
	"math"
)

// PID is a textbook discrete P-I-D controller over the voltage error, the
// alternative Section 6 discusses and argues against for dI/dt control: it
// needs a numeric voltage reading (not just a range) and a series of
// multiply-accumulates per sample, both of which add latency precisely
// where turnaround time is scarce. ComparePID quantifies that argument.
type PID struct {
	Kp, Ki, Kd float64
	Setpoint   float64

	integral float64
	prevErr  float64
	primed   bool
}

// Update consumes one voltage sample and returns the control output in
// amperes of requested current *reduction* (negative values request more
// current).
func (p *PID) Update(v float64) float64 {
	e := p.Setpoint - v // positive error = undervoltage = reduce current
	p.integral += e
	d := 0.0
	if p.primed {
		d = e - p.prevErr
	}
	p.prevErr = e
	p.primed = true
	return p.Kp*e + p.Ki*p.integral + p.Kd*d
}

// Reset clears the controller state.
func (p *PID) Reset() {
	p.integral, p.prevErr, p.primed = 0, 0, false
}

// PIDPoint is one delay evaluation of the threshold-vs-PID comparison.
type PIDPoint struct {
	Delay        int     // sensor delay charged to the threshold controller
	PIDDelay     int     // sensor delay + compute latency charged to the PID
	ThresholdDev float64 // worst-case |V - nominal| under threshold control
	PIDDev       float64 // worst-case |V - nominal| under the best PID found
	ThresholdOK  bool    // stayed within the emergency band
	PIDOK        bool
	// Intervention fractions: how often each controller overrides the
	// workload's demand — the proxy for performance cost. Threshold
	// control intervenes only near the band edge; a PID modulates
	// continuously.
	ThresholdIntervene float64
	PIDIntervene       float64
	BestGains          PID // gains of the best PID (Kp/Ki/Kd populated)
}

// ComparePID evaluates the threshold controller against a gain-searched
// PID controller on the worst-case resonant waveform, charging the PID the
// extra compute latency Section 6 predicts (extraPIDDelay cycles for the
// multiply-accumulate pipeline). Both controllers get the same actuation
// authority (env.Floor/env.Ceil); the PID may command any current between
// them (it is given *more* capability — continuous actuation — and still
// loses on latency).
func (s *Solver) ComparePID(env Envelope, maxDelay, extraPIDDelay int) ([]PIDPoint, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	var out []PIDPoint
	vNom := s.net.Params().VNominal
	tol := s.net.Params().Tolerance * vNom
	for d := 0; d <= maxDelay; d++ {
		pt := PIDPoint{Delay: d, PIDDelay: d + extraPIDDelay}

		// Threshold controller at its solved thresholds.
		th, err := s.Solve(env, d)
		if err != nil {
			return nil, err
		}
		if th.Stable {
			minV, maxV, intervene := s.excursions(th.Low, th.High, env, d)
			pt.ThresholdDev = math.Max(vNom-minV, maxV-vNom)
			pt.ThresholdOK = pt.ThresholdDev <= tol+1e-4
			pt.ThresholdIntervene = intervene
		}

		// PID: coarse gain search, each candidate evaluated on the same
		// worst-case suite.
		best := math.Inf(1)
		for _, kp := range []float64{100, 300, 600, 1200, 2400} {
			for _, ki := range []float64{0, 5, 20} {
				for _, kd := range []float64{0, 200, 800} {
					dev, intervene := s.pidExcursion(PID{Kp: kp, Ki: ki, Kd: kd}, env, pt.PIDDelay)
					if dev < best {
						best = dev
						pt.BestGains = PID{Kp: kp, Ki: ki, Kd: kd}
						pt.PIDIntervene = intervene
					}
				}
			}
		}
		pt.PIDDev = best
		pt.PIDOK = best <= tol+1e-4
		out = append(out, pt)
	}
	return out, nil
}

// pidExcursion runs the PID-controlled plant against the worst-case suite
// and returns the maximum |V - nominal| plus the fraction of cycles the
// controller overrode the demand.
func (s *Solver) pidExcursion(gains PID, env Envelope, delay int) (float64, float64) {
	worst := 0.0
	var intervened, total int
	vNom := s.net.Params().VNominal
	period := s.net.ResonantPeriodCycles()
	cycles := s.net.KernelLen() + 14*period
	vHist := make([]float64, delay+1)
	for _, sc := range scenarios {
		pid := gains
		pid.Setpoint = vNom
		sim := s.net.NewSimulator()
		for i := range vHist {
			vHist[i] = vNom
		}
		for c := 0; c < cycles; c++ {
			u := pid.Update(vHist[0])
			dem := scenarioDemand(sc, c, cycles, period, env)
			i := dem - u
			// Actuation authority: gating can only pull current down
			// toward the floor, phantom firing only push it up toward the
			// ceiling; the raw demand itself is always reachable.
			lo, hi := env.Floor, env.Ceil
			if dem < lo {
				lo = dem
			}
			if dem > hi {
				hi = dem
			}
			if i < lo {
				i = lo
			}
			if i > hi {
				i = hi
			}
			if math.Abs(i-dem) > 0.5 {
				intervened++
			}
			total++
			v := sim.Step(i)
			if dev := math.Abs(v - vNom); dev > worst {
				worst = dev
			}
			copy(vHist, vHist[1:])
			vHist[delay] = v
		}
		sim.Release()
	}
	return worst, float64(intervened) / float64(total)
}
