package analysis

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/profilers"
	"repro/internal/program"
	"repro/internal/simerr"
	"repro/internal/system"
	"repro/internal/workloads"
)

// afterSuite runs study on the store holding the cached suite's
// captures. A probe-only study replays them: it simulates nothing, and
// it looks the store up once per workload it reports.
func afterSuite(t *testing.T, reported int, study func()) {
	t.Helper()
	suite(t)
	prev := SetTraceStore(suiteStore)
	defer SetTraceStore(prev)
	captures, hits := CaptureCount(), suiteStore.Snapshot().Hits
	study()
	if got := CaptureCount() - captures; got != 0 {
		t.Errorf("study simulated %d programs the suite had captured; want 0", got)
	}
	if got := suiteStore.Snapshot().Hits - hits; got != uint64(reported) {
		t.Errorf("study hit the trace store %d times; want %d, one per workload it reports", got, reported)
	}
}

// requireZeroIntervalRejected runs study under a zero sampling interval
// and requires the typed ErrInvalidConfig, panicked or returned. The
// probes are built on worker goroutines, so a panic escaping one would
// kill the test binary instead of reaching this recover.
func requireZeroIntervalRejected(t *testing.T, study func(RunConfig) error) {
	t.Helper()
	rc := testConfig()
	rc.Interval = 0
	got := func() (v any) {
		defer func() {
			if r := recover(); r != nil {
				v = r
			}
		}()
		return study(rc)
	}()
	err, _ := got.(error)
	var se *simerr.Error
	if !errors.As(err, &se) || se.Kind != simerr.ErrInvalidConfig {
		t.Fatalf("zero interval: got %v; want a typed ErrInvalidConfig", got)
	}
}

func TestDispatchTaggedTEATracksIBS(t *testing.T) {
	rc := testConfig()
	var rows []DTEARow
	afterSuite(t, len(workloads.All()), func() { rows = DispatchTaggedTEA(rc) })
	if len(rows) != len(workloads.All())+1 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Its TEA and IBS are the registry's, replayed from the same
	// captures, so every row matches Figure 5 exactly.
	for i, acc := range AccuracyStudy(suite(t)) {
		if r := rows[i]; r.Benchmark != acc.Benchmark ||
			r.TEA != acc.Errors[profilers.NameTEA] || r.IBS != acc.Errors[profilers.NameIBS] {
			t.Errorf("%s: D-TEA study's TEA %v, IBS %v; Figure 5's %s TEA %v, IBS %v", r.Benchmark,
				r.TEA, r.IBS, acc.Benchmark, acc.Errors[profilers.NameTEA], acc.Errors[profilers.NameIBS])
		}
	}
	requireZeroIntervalRejected(t, func(rc RunConfig) error {
		DispatchTaggedTEA(rc)
		return nil
	})
	avg := rows[len(rows)-1]
	if avg.Benchmark != "average" {
		t.Fatalf("missing average row")
	}
	// The paper's observation: dispatch-tagged TEA yields similar
	// accuracy to IBS — much worse than TEA.
	if avg.DTEA < 2*avg.TEA {
		t.Errorf("D-TEA average error %.3f should be far worse than TEA's %.3f", avg.DTEA, avg.TEA)
	}
	ratio := avg.DTEA / avg.IBS
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("D-TEA (%.3f) should track IBS (%.3f); ratio %.2f", avg.DTEA, avg.IBS, ratio)
	}
}

func TestEventSetAblation(t *testing.T) {
	rc := testConfig()
	var rows []AblationRow
	var err error
	afterSuite(t, 1, func() { rows, err = EventSetAblationStudy(rc, "bwaves") })
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(profilers.AblationLadder()) {
		t.Fatalf("got %d rungs", len(rows))
	}
	// Bits ascend and interpretability (components) is non-decreasing.
	for i := 1; i < len(rows); i++ {
		if rows[i].Bits <= rows[i-1].Bits {
			t.Errorf("ladder bits not ascending: %+v", rows)
		}
		if rows[i].Components < rows[i-1].Components {
			t.Errorf("components shrank with a larger event set: %+v", rows)
		}
	}
	// The TIP rung distinguishes only the Base component.
	if rows[0].Components != 1 {
		t.Errorf("TIP rung has %d components, want 1", rows[0].Components)
	}
	// The full-TEA rung must distinguish the combined cache+TLB
	// signatures bwaves exists to produce.
	if rows[len(rows)-1].Components < 3 {
		t.Errorf("TEA rung distinguishes only %d components on bwaves", rows[len(rows)-1].Components)
	}
	// Sampling error stays bounded on every rung (the ladder trades
	// interpretability, not accuracy).
	for _, r := range rows {
		if r.Error > 0.2 {
			t.Errorf("rung %q error %.3f unexpectedly high", r.Rung, r.Error)
		}
	}
	requireZeroIntervalRejected(t, func(rc RunConfig) error {
		_, err := EventSetAblationStudy(rc, "bwaves")
		return err
	})
}

func TestAblationUnknownBenchmark(t *testing.T) {
	if _, err := EventSetAblationStudy(testConfig(), "nope"); err == nil {
		t.Fatalf("expected error")
	}
}

func TestExtensionRenderers(t *testing.T) {
	rc := testConfig()
	suite(t)
	prev := SetTraceStore(suiteStore)
	defer SetTraceStore(prev)
	var buf bytes.Buffer
	RenderDTEA(&buf, DispatchTaggedTEA(rc))
	rows, err := EventSetAblationStudy(rc, "bwaves")
	if err != nil {
		t.Fatal(err)
	}
	RenderAblation(&buf, "bwaves", rows)
	out := buf.String()
	for _, want := range []string{"D-TEA", "average", "event set", "components", "TIP"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestMulticoreStudy(t *testing.T) {
	rc := testConfig()
	rc.Scale = 0.4
	st, err := Multicore(rc, "fotonik3d", "lbm")
	if err != nil {
		t.Fatal(err)
	}
	if st.Slowdown <= 1.0 {
		t.Errorf("contention slowdown = %.2f, want > 1", st.Slowdown)
	}
	if st.PairedMemShare <= st.SoloMemShare {
		t.Errorf("memory-event share did not grow under contention: %.3f vs %.3f",
			st.PairedMemShare, st.SoloMemShare)
	}
	for i, e := range st.TEAErrors {
		if e > 0.2 {
			t.Errorf("core %d TEA error %.3f under contention, want small", i, e)
		}
	}
}

// TestSoloSystemMatchesReplay pins the equivalence Multicore's solo run
// rests on: a one-core system is the machine cpu.New builds (a private
// LLC and DRAM under the same Step loop), so its live golden profile
// and cycle count equal the replay of the program's capture.
func TestSoloSystemMatchesReplay(t *testing.T) {
	rc := testConfig()
	w, err := workloads.ByName("fotonik3d")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(rc.iters(w))
	sys := system.New(rc.Core, []*program.Program{p})
	golden := core.NewGolden(sys.Core(0))
	sys.Core(0).Attach(golden)
	stats := sys.Run()
	br := RunProgram(w, p, rc)
	if stats[0].Cycles != br.Stats.Cycles {
		t.Errorf("one-core system ran %d cycles, replay %d", stats[0].Cycles, br.Stats.Cycles)
	}
	if !bytes.Equal(renderJSON(t, golden.Profile()), renderJSON(t, br.Golden)) {
		t.Error("one-core system's golden profile differs from the replay's")
	}
}

func TestMulticoreUnknownBenchmarks(t *testing.T) {
	if _, err := Multicore(testConfig(), "nope", "lbm"); err == nil {
		t.Errorf("unknown victim accepted")
	}
	if _, err := Multicore(testConfig(), "lbm", "nope"); err == nil {
		t.Errorf("unknown antagonist accepted")
	}
}

func TestJitterAblation(t *testing.T) {
	rc := testConfig()
	var rows []JitterRow
	afterSuite(t, len(workloads.All()), func() { rows = JitterAblation(rc) })
	if rows[len(rows)-1].Benchmark != "average" {
		t.Fatalf("missing average row")
	}
	// The jittered unit is the registry's TEA, so every row matches
	// Figure 5's TEA column exactly.
	for i, acc := range AccuracyStudy(suite(t)) {
		if r := rows[i]; r.Benchmark != acc.Benchmark || r.WithJitter != acc.Errors[profilers.NameTEA] {
			t.Errorf("%s: jittered TEA error %v; Figure 5's %s TEA %v",
				r.Benchmark, r.WithJitter, acc.Benchmark, acc.Errors[profilers.NameTEA])
		}
	}
	avg := rows[len(rows)-1]
	// A fixed-period sampler must not beat the jittered one on these
	// highly regular kernels; aliasing typically makes it worse.
	if avg.WithoutJitter < avg.WithJitter*0.7 {
		t.Errorf("fixed-period sampling (%.3f) substantially beats jittered (%.3f)?",
			avg.WithoutJitter, avg.WithJitter)
	}
	for _, r := range rows {
		if r.WithJitter < 0 || r.WithJitter > 1 || r.WithoutJitter < 0 || r.WithoutJitter > 1 {
			t.Errorf("%s: errors out of range: %+v", r.Benchmark, r)
		}
	}
	requireZeroIntervalRejected(t, func(rc RunConfig) error {
		JitterAblation(rc)
		return nil
	})
}
