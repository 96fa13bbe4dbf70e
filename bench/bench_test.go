package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the smoke test checks against.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// exactCounts must repeat exactly between two runs with the same seed.
var exactCounts = []string{
	"cpu.cycles", "trace.encoded_bytes", "trace.records", "analysis.captures",
	"tracestore.hits", "tracestore.misses", "pics.render_bytes",
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// tiny runs a workload through the benchmark's own code path at a size
// that takes seconds: one suite pass or eight jobs per phase, scale 0.01.
func tiny(t *testing.T, workload string, trace bool) result {
	t.Helper()
	o := options{workload: workload, seed: 1, seconds: 60, trace: trace, scale: 0.01, maxOps: 1, setups: 1,
		spans: filepath.Join(t.TempDir(), "spans.json")}
	if workload == "serve-tea" {
		o.maxOps = 8
	}
	var out bytes.Buffer
	start := time.Now()
	res, err := runOne(context.Background(), &out, o)
	t.Logf("%s trace=%v: %v", workload, trace, time.Since(start))
	if err != nil {
		t.Fatalf("%s (trace %v): %v\n%s", workload, trace, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (trace %v): correct=%v attempted=%d failed=%d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, out.String())
	}
	if trace {
		if _, err := os.Stat(o.spans); err != nil {
			t.Errorf("%s: traced run wrote no span file: %v", workload, err)
		}
	}
	return res
}

// TestSmoke runs every declared workload untraced and traced and checks
// that every declared metric comes out, finite, under a valid name, and
// that the exact counts repeat across two traced runs.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q here", i, w.Name, workloadNames[i])
		}
	}
	check := func(workload string, res result, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: emitted %d metrics, BENCHMARK.json declares %d", workload, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !metricName.MatchString(m.Name):
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
			case !ok:
				t.Errorf("%s: metric %s not emitted", workload, m.Name)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("%s: metric %s = %v", workload, m.Name, got.Value)
			case got.Unit != m.Unit:
				t.Errorf("%s: metric %s in %s, declared in %s", workload, m.Name, got.Unit, m.Unit)
			}
		}
	}
	for _, w := range workloadNames {
		check(w, tiny(t, w, false), decl.EndToEnd)
		first := tiny(t, w, true)
		check(w, first, decl.PerLayer)
		second := tiny(t, w, true)
		for _, name := range exactCounts {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				t.Errorf("%s: %s is %v then %v across two runs", w, name, a, b)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCovered(t *testing.T) {
	// Children [0,4), [2,6) and [8,12) inside a parent [1,10) cover
	// [1,6) and [8,10): 7 units.
	got := covered(1, 10, [][2]int64{{8, 12}, {0, 4}, {2, 6}})
	if got != 7 {
		t.Errorf("covered = %d, want 7", got)
	}
}
