package benchfile

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestPrinted(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{0, 0},
		{388366, 388366},
		{999.95, 1000},
		{999.94, 999.9},
		{192.04, 192},
		{63.5749, 63.57},
		{6.407423852318227, 6.407},
		{-0.867349, -0.8673},
		{0.13191, 0.1319},
		{0.0123456, 0.01235},
		{0.00123456, 0.001235},
		{0.000123456, 0.0001235},
	} {
		if got := printed(c.in); got != c.want {
			t.Errorf("printed(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	doc := `{"benchmarks": [
		{"name": "A", "ns_per_op": 12, "metrics": {"x": 6.407, "y": 2}},
		{"name": "B", "ns_per_op": 34},
		{"name": "C", "metrics": {"z": 1}}
	]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}

	same := map[string]map[string]float64{
		"A": {"x": 6.40742, "y": 2},
		"B": nil,
		"C": {"z": 1},
	}
	if msgs, err := Drift(path, same); err != nil || msgs != nil {
		t.Fatalf("matching metrics: %q, %v", msgs, err)
	}

	drifted := map[string]map[string]float64{
		"A": {"x": 6.4076, "extra": 3},
		"B": nil,
		"D": {"w": 1},
	}
	msgs, err := Drift(path, drifted)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"A x: computed 6.4076, prints 6.408, " + path + " has 6.407",
		"A y: 2 in " + path + ", not computed",
		"A extra: computed 3, prints 3, not in " + path,
		"C: in " + path + ", not computed",
		"D: computed, not in " + path,
	}
	if !reflect.DeepEqual(msgs, want) {
		t.Errorf("drift messages:\n got %q\nwant %q", msgs, want)
	}

	if _, err := Drift(filepath.Join(t.TempDir(), "missing.json"), same); err == nil {
		t.Error("missing file: no error")
	}
}
