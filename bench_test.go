// Package repro_test pins the reproduction's evaluation: TestPaperNumbers
// recomputes every table and figure metric at a reduced scale and
// checks it against the committed BENCH_2026-08-08_v4codec.json.
// The benchmarks in this file time the substrate underneath
// (`go test -run '^$' -bench=. .`). EXPERIMENTS.md records the
// full-scale runs from cmd/teaexp.
package repro_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchConfig returns the scaled configuration of the harness.
func benchConfig() analysis.RunConfig {
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.25
	rc.Interval = 192
	rc.Jitter = 16
	return rc
}

// coreSimulation runs fotonik3d with no probes attached.
func coreSimulation() map[string]float64 {
	w, _ := workloads.ByName("fotonik3d")
	st := cpu.New(cpu.DefaultConfig(), w.Build(2000)).Run()
	return map[string]float64{"cycles/run": float64(st.Cycles)}
}

// captureReplay captures bwaves as a trace and replays it into the
// golden reference.
func captureReplay() (map[string]float64, error) {
	w, _ := workloads.ByName("bwaves")
	c := cpu.New(cpu.DefaultConfig(), w.Build(1500))
	var buf bytes.Buffer
	c.Attach(trace.NewWriter(&buf))
	st := c.Run()
	if _, err := trace.Replay(bytes.NewReader(buf.Bytes()), core.NewGolden(nil)); err != nil {
		return nil, err
	}
	return map[string]float64{"trace_bytes/cycle": float64(buf.Len()) / float64(st.Cycles)}, nil
}

// suiteCapture captures every workload at rc. Every metric is a
// deterministic function of the captured bytes; the two FNV-1a halves
// are exact in float64, so equal halves mean byte-identical suite
// traces.
func suiteCapture(rc analysis.RunConfig) (map[string]float64, error) {
	var traceBytes, cycles uint64
	digest := uint64(14695981039346656037) // FNV-1a offset basis
	for _, w := range workloads.All() {
		data, st, err := analysis.CaptureTrace(context.Background(), w.Build(rc.Iters(w)), rc)
		if err != nil {
			return nil, err
		}
		traceBytes += uint64(len(data))
		cycles += st.Cycles
		for _, by := range data {
			digest = (digest ^ uint64(by)) * 1099511628211
		}
	}
	return map[string]float64{
		"trace_bytes":  float64(traceBytes),
		"suite_cycles": float64(cycles),
		"trace_fnv_hi": float64(digest >> 32),
		"trace_fnv_lo": float64(digest & 0xffffffff),
	}, nil
}

func reportMetrics(b *testing.B, m map[string]float64) {
	for unit, v := range m {
		b.ReportMetric(v, unit)
	}
}

// BenchmarkCoreSimulation measures raw simulator throughput with no
// probes attached.
func BenchmarkCoreSimulation(b *testing.B) {
	var m map[string]float64
	for i := 0; i < b.N; i++ {
		m = coreSimulation()
	}
	reportMetrics(b, m)
}

// BenchmarkGoldenReference measures the per-cycle attribution overhead
// of the golden reference.
func BenchmarkGoldenReference(b *testing.B) {
	w, _ := workloads.ByName("fotonik3d")
	for i := 0; i < b.N; i++ {
		c := cpu.New(cpu.DefaultConfig(), w.Build(2000))
		g := core.NewGolden(c)
		c.Attach(g)
		c.Run()
	}
}

// BenchmarkTraceCaptureReplay measures the TraceDoctor-style capture
// and offline-replay substrate.
func BenchmarkTraceCaptureReplay(b *testing.B) {
	var m map[string]float64
	for i := 0; i < b.N; i++ {
		var err error
		if m, err = captureReplay(); err != nil {
			b.Fatal(err)
		}
	}
	reportMetrics(b, m)
}

// BenchmarkSuiteCapture measures raw trace capture for the whole suite.
func BenchmarkSuiteCapture(b *testing.B) {
	var m map[string]float64
	for i := 0; i < b.N; i++ {
		var err error
		if m, err = suiteCapture(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
	reportMetrics(b, m)
}
