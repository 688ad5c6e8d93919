package experiments

import (
	"testing"

	"didt/internal/sim"
	"didt/internal/spec"
)

// TestCanonicalRunSpecKeysBothUnitSets: with control on, mechanisms that
// gate and fire the same units share one run-memo key whatever their
// names, and a pairing that fires fewer units does not.
func TestCanonicalRunSpecKeysBothUnitSets(t *testing.T) {
	key := func(mech string) string {
		var s spec.RunSpec
		s.Control.Enabled = true
		s.Actuator.Mechanism = mech
		return sim.Fingerprint(canonicalRunSpec(s))
	}
	ideal := key("ideal")
	for _, m := range []string{"FU/DL1/IL1", "gate ideal, fire FU/DL1/IL1", "gate FU/DL1/IL1, fire ideal"} {
		if key(m) != ideal {
			t.Errorf("%q keys apart from ideal", m)
		}
	}
	for _, m := range []string{"gate FU/DL1/IL1, fire FU", "gate FU, fire FU/DL1/IL1", "FU"} {
		if key(m) == ideal {
			t.Errorf("%q shares ideal's key", m)
		}
	}
	if key("gate FU, fire FU") != key("FU") {
		t.Error(`"gate FU, fire FU" keys apart from "FU"`)
	}
}
