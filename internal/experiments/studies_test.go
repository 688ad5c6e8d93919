package experiments

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// writeFields records v, every field of every nested struct, slice, map
// and pointer, one "path value" line per leaf. Floats are written as their
// IEEE-754 bits so the golden pins the studies bit for bit; map keys are
// sorted; unexported fields are included.
func writeFields(w *bytes.Buffer, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprintf(w, "%s nil\n", path)
			return
		}
		writeFields(w, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			writeFields(w, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		fmt.Fprintf(w, "%s len %d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			writeFields(w, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].Int() < keys[j].Int() })
		for _, k := range keys {
			writeFields(w, fmt.Sprintf("%s[%d]", path, k.Int()), v.MapIndex(k))
		}
	case reflect.Float64:
		fmt.Fprintf(w, "%s %016x\n", path, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		fmt.Fprintf(w, "%s %d\n", path, v.Int())
	case reflect.Uint64:
		fmt.Fprintf(w, "%s %d\n", path, v.Uint())
	case reflect.Bool:
		fmt.Fprintf(w, "%s %t\n", path, v.Bool())
	case reflect.String:
		fmt.Fprintf(w, "%s %q\n", path, v.String())
	default:
		panic(fmt.Sprintf("writeFields: %s has unhandled kind %s", path, v.Kind()))
	}
}

// TestStudiesGolden pins the typed results of the controlled-cost studies
// (Figures 14-18, the Section 5.2/5.3 stressmark, the Section 6
// extensions and the ablations) and of the characterization sweeps that
// share their program lookup, at tinyConfig. Regenerate with
// `go test ./internal/experiments -run TestStudiesGolden -update` only
// after a deliberate change to the studies' results.
func TestStudiesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every controlled-cost study")
	}
	cfg := tinyConfig()
	studies := []struct {
		name string
		run  func() (any, error)
	}{
		{"sensor-delay", func() (any, error) { return sensorDelayStudy(cfg) }},
		{"sensor-error", func() (any, error) { return sensorErrorStudy(cfg) }},
		{"actuation", func() (any, error) { return actuationStudy(cfg) }},
		{"stressmark-actuation", func() (any, error) { return stressmarkActuation(cfg) }},
		{"asymmetric", func() (any, error) { return asymmetricStudy(cfg) }},
		{"recovery-policy", func() (any, error) { return recoveryStudy(cfg) }},
		{"ramp-policy", func() (any, error) { return rampStudy(cfg) }},
		{"software-scheduling", func() (any, error) { return softwareStudy(cfg) }},
		{"ablation-gating", func() (any, error) { return gatingAblation(cfg) }},
		{"ablation-window", func() (any, error) { return windowAblation(cfg) }},
		{"pid", func() (any, error) { return pidStudy(cfg) }},
		{"table2", func() (any, error) { return Table2(cfg) }},
		{"fig10", func() (any, error) { return Fig10(cfg) }},
		{"fig9", func() (any, error) {
			r, err := Fig9(cfg)
			if err != nil {
				return nil, err
			}
			return struct{ WorstDeviation, StressDeviation, Fraction float64 }{
				r.WorstDeviation, r.StressDeviation, r.Fraction}, nil
		}},
		{"rails-emergencies", func() (any, error) { return RailsEmergencies(cfg) }},
	}
	var got bytes.Buffer
	for _, st := range studies {
		r, err := st.run()
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		writeFields(&got, st.name, reflect.ValueOf(r))
	}
	path := filepath.Join("testdata", "studies.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("studies differ from golden:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
