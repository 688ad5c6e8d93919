package experiments

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	reg := Registry()
	wanted := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig9", "fig10",
		"fig11", "table2", "table3", "fig14", "fig15", "fig16", "fig17",
		"fig18", "stressmark-actuation",
	}
	for _, id := range wanted {
		if _, ok := reg[id]; !ok {
			t.Errorf("missing experiment %q", id)
		}
	}
	ids := IDs()
	if len(ids) != len(reg) {
		t.Errorf("IDs() has %d entries, registry %d", len(ids), len(reg))
	}
}

// TestIDsMatchCommittedOutput: IDs() lists the experiments in exactly the
// order of the committed `-run all` output, one "[<id> completed in …]"
// footer per experiment.
func TestIDsMatchCommittedOutput(t *testing.T) {
	out, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range regexp.MustCompile(`(?m)^\[(\S+) completed in `).FindAllSubmatch(out, -1) {
		want = append(want, string(m[1]))
	}
	if len(want) != 29 {
		t.Fatalf("experiments_output.txt has %d experiments, want 29", len(want))
	}
	if got := IDs(); !slices.Equal(got, want) {
		t.Errorf("IDs() = %v\nwant %v", got, want)
	}
}

func TestFig1Shape(t *testing.T) {
	r, err := Fig1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.HighPerformance >= first.HighPerformance {
		t.Error("impedance trend must fall")
	}
	if last.RelativeGapFactor >= first.RelativeGapFactor {
		t.Error("class gap must shrink")
	}
}

func TestFig2Shape(t *testing.T) {
	r, err := Fig2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// The impedance curve must peak in the interior (resonance), not at
	// the edges of the sweep.
	peakIdx, peak := 0, 0.0
	for i, z := range r.Impedance {
		if z > peak {
			peak, peakIdx = z, i
		}
	}
	if peakIdx == 0 || peakIdx == len(r.Impedance)-1 {
		t.Errorf("impedance peak at sweep edge (idx %d)", peakIdx)
	}
	// Step response must overshoot its final value (underdamped).
	final := r.Step[len(r.Step)-1]
	maxStep := 0.0
	for _, v := range r.Step {
		if v > maxStep {
			maxStep = v
		}
	}
	if maxStep <= final {
		t.Error("step response shows no overshoot")
	}
}

func TestPulseFigures(t *testing.T) {
	cfg := Quick()
	narrow, err := Pulse(cfg, "fig3")
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Crossed {
		t.Error("fig3: narrow spike must not cause an emergency")
	}
	wide, err := Pulse(cfg, "fig4")
	if err != nil {
		t.Fatal(err)
	}
	if wide.Voltage.Min() >= narrow.Voltage.Min() {
		t.Error("fig4: wide spike must dip deeper than narrow")
	}
	notch, err := Pulse(cfg, "fig5")
	if err != nil {
		t.Fatal(err)
	}
	if notch.Voltage.Min() <= wide.Voltage.Min() {
		t.Error("fig5: the control notch must relieve the dip")
	}
	train, err := Pulse(cfg, "fig6")
	if err != nil {
		t.Fatal(err)
	}
	if !train.Crossed {
		t.Error("fig6: the resonant pulse train must cause an emergency at 200%")
	}
	if train.Voltage.Min() >= wide.Voltage.Min() {
		t.Error("fig6: resonance must build beyond a single pulse")
	}
	if _, err := Pulse(cfg, "bogus"); err == nil {
		t.Error("want error for unknown pulse id")
	}
}

func TestTable3Shape(t *testing.T) {
	r, err := Table3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		a, b := r.Rows[i-1].Thresholds, r.Rows[i].Thresholds
		if !a.Stable || !b.Stable {
			t.Fatalf("row %d unstable", i)
		}
		if b.Low < a.Low-1e-6 {
			t.Errorf("delay %d: low threshold fell (%.4f -> %.4f)", i, a.Low, b.Low)
		}
	}
	first, last := r.Rows[0].Thresholds, r.Rows[6].Thresholds
	if last.SafeWindow >= first.SafeWindow {
		t.Errorf("safe window must shrink with delay: %.1f -> %.1f mV",
			first.SafeWindow*1e3, last.SafeWindow*1e3)
	}
}

func TestQuickHarnessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("quick harness still runs full simulations")
	}
	// Exercise a representative subset of runners end to end with the
	// quick config; render output must be non-trivial.
	cfg := Quick()
	for _, id := range []string{"fig1", "fig2", "fig3", "fig9", "fig11", "table3",
		"locality", "software-scheduling", "ramp-policy", "ablation-gating", "asymmetric", "pid"} {
		var buf bytes.Buffer
		if err := Registry()[id](cfg, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() < 100 {
			t.Errorf("%s: output suspiciously short", id)
		}
		if !strings.Contains(buf.String(), "===") {
			t.Errorf("%s: missing title rule", id)
		}
	}
}

func TestTable2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := Quick()
	r, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The definitional guarantee: no emergencies when impedance meets spec.
	if n, _, _ := r.Summary(100); n != 0 {
		t.Errorf("%d benchmarks with emergencies at 100%%", n)
	}
	if r.Stressmark.Freq[200] == 0 {
		t.Error("stressmark must break through at 200% impedance")
	}
	// Emergencies grow (weakly) with impedance.
	n3, _, _ := r.Summary(300)
	n4, _, _ := r.Summary(400)
	if n4 < n3 {
		t.Errorf("emergencies shrank with impedance: %d at 300%%, %d at 400%%", n3, n4)
	}
}

func TestMemoization(t *testing.T) {
	cfg := Quick()
	a, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("memoized study returned a different pointer")
	}
}
