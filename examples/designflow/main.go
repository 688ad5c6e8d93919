// Designflow walks the paper's Figure 13 methodology explicitly, step by
// step: analyze the power supply system, analyze the processor model, find
// the worst case, solve for thresholds, then verify on the cycle
// simulator. This is the example to read when adapting the library to a
// different package or core.
package main

import (
	"fmt"
	"log"

	"didt"
	"didt/internal/actuator"
	"didt/internal/control"
	"didt/internal/core"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/spec"
)

func main() {
	fmt.Println("The Figure 13 design flow, step by step")
	fmt.Println()

	// Step 1: analyze the power supply system — resonant frequency and
	// peak impedance.
	iMin, iMax := 11.0, 51.0 // from the envelope probe; see step 2
	net, err := pdn.Calibrate(pdn.Params{IFloor: 0.5 * (iMin + iMax)}, iMin, iMax, 2)
	if err != nil {
		log.Fatal(err)
	}
	sys2 := net.System()
	fmt.Printf("1. power supply analysis:\n")
	fmt.Printf("   resonant frequency %.0f MHz, peak impedance %.2f mΩ (200%% of target)\n",
		sys2.ResonantFreq()/1e6, sys2.PeakImpedance()*1e3)
	fmt.Printf("   resonant period %d CPU cycles at 3 GHz; damping ζ = %.2f\n",
		net.ResonantPeriodCycles(), sys2.DampingRatio())

	// Step 2: analyze the processor model — minimum and maximum power.
	pm := power.New(power.Params{}, didt.CPUConfig{})
	fmt.Printf("\n2. processor power analysis:\n")
	fmt.Printf("   idle floor %.1f A, absolute unit-peak sum %.1f A\n", pm.MinCurrent(power.AllScopes), pm.MaxCurrent(power.AllScopes))
	fmt.Printf("   (the coupled system measures the *achievable* maximum with a saturation probe)\n")

	// Step 3: the worst-case waveform — a square wave over the envelope at
	// the resonant period.
	dev := net.WorstCaseDeviation(iMin, iMax)
	fmt.Printf("\n3. worst-case waveform: resonant square %g↔%g A -> ±%.1f mV (band is ±50 mV)\n",
		iMin, iMax, dev*1e3)

	// Step 4: solve for thresholds under each sensor delay.
	solver := control.NewSolver(net)
	floor, ceil := actuator.FUDL1.Envelope(pm)
	fmt.Printf("\n4. threshold solving (FU/DL1 authority: floor %.1f A, ceiling %.1f A):\n", floor, ceil)
	for _, d := range []int{0, 2, 4} {
		th, err := solver.Solve(control.Envelope{
			IMin: iMin, IMax: iMax, Floor: floor, Ceil: ceil, Settle: 2,
		}, d)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   delay %d: low %.4f V, high %.4f V (window %.1f mV, stable=%v)\n",
			d, th.Low, th.High, th.SafeWindow*1e3, th.Stable)
	}

	// Step 5: simulate processor voltage and performance with the
	// thresholds in the loop.
	prog := didt.Stressmark(didt.StressmarkParams{Iterations: 1500})
	var sp spec.RunSpec
	sp.PDN.ImpedancePct = 2
	sp.Control.Enabled = true
	sp.Actuator.Mechanism = actuator.FUDL1.Name
	sp.Sensor.DelayCycles = 2
	run, err := core.NewSystem(prog, core.Options{Spec: sp})
	if err != nil {
		log.Fatal(err)
	}
	res, err := run.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n5. closed-loop verification on the stressmark:\n")
	fmt.Printf("   V ∈ [%.4f, %.4f], emergencies %d, gating events %d, IPC %.2f\n",
		res.MinV, res.MaxV, res.Emergencies, res.LowEvents, res.IPC())
}
