// Package repro_test is the benchmark harness: one testing.B per table
// and figure of the paper's evaluation (run with `go test -bench=.`).
// Each benchmark regenerates its artifact at a reduced scale and
// reports the headline numbers as custom metrics, so `-benchmem` output
// doubles as a summary of the reproduction (EXPERIMENTS.md records the
// full-scale runs from cmd/teaexp).
package repro_test

import (
	"bytes"
	"context"
	"io"
	"os"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/pics"
	"repro/internal/profilers"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// init honors TEA_TRACE_CACHE for the whole harness, mirroring
// cmd/teaexp's -tracecache flag: with it set, a second bench run
// replays the first run's persisted captures instead of re-simulating.
func init() {
	if dir := os.Getenv("TEA_TRACE_CACHE"); dir != "" {
		analysis.SetTraceStore(analysis.NewTraceStore(analysis.DefaultStoreBudget, dir))
	}
}

// benchConfig returns the scaled configuration used by the harness.
func benchConfig() analysis.RunConfig {
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.25
	rc.Interval = 192
	rc.Jitter = 16
	return rc
}

// BenchmarkTable1EventSets checks/renders the Table 1 event matrix.
func BenchmarkTable1EventSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		analysis.RenderTable1(io.Discard)
	}
	b.ReportMetric(float64(events.TEASet.Bits()), "tea_psv_bits")
	b.ReportMetric(float64(events.IBSSet.Bits()), "ibs_psv_bits")
}

// BenchmarkTable2Config renders the architecture configuration.
func BenchmarkTable2Config(b *testing.B) {
	cfg := cpu.DefaultConfig()
	for i := 0; i < b.N; i++ {
		analysis.RenderTable2(io.Discard, cfg)
	}
	b.ReportMetric(float64(cfg.ROBEntries), "rob_entries")
}

// BenchmarkFig1Quickstart runs the worked example: a small kernel under
// TEA and the golden reference.
func BenchmarkFig1Quickstart(b *testing.B) {
	rc := benchConfig()
	rc.Scale = 0.05
	w, _ := workloads.ByName("bwaves")
	var err float64
	for i := 0; i < b.N; i++ {
		br := analysis.RunBenchmark(w, rc)
		err = pics.Error(br.TEA, br.Golden)
	}
	b.ReportMetric(100*err, "tea_err_%")
}

// BenchmarkFig5Accuracy regenerates the headline accuracy comparison.
func BenchmarkFig5Accuracy(b *testing.B) {
	rc := benchConfig()
	var avg analysis.AccuracyRow
	for i := 0; i < b.N; i++ {
		rows := analysis.AccuracyStudy(analysis.RunSuite(rc))
		avg = rows[len(rows)-1]
	}
	b.ReportMetric(100*avg.Errors[profilers.NameTEA], "tea_err_%")
	b.ReportMetric(100*avg.Errors[profilers.NameNCITEA], "nci_err_%")
	b.ReportMetric(100*avg.Errors[profilers.NameIBS], "ibs_err_%")
	b.ReportMetric(100*avg.Errors[profilers.NameSPE], "spe_err_%")
	b.ReportMetric(100*avg.Errors[profilers.NameRIS], "ris_err_%")
}

// BenchmarkFig6TopPICS regenerates the per-instruction PICS panels.
func BenchmarkFig6TopPICS(b *testing.B) {
	rc := benchConfig()
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, name := range analysis.Fig6Benchmarks {
			w, _ := workloads.ByName(name)
			br := analysis.RunBenchmark(w, rc)
			tp := analysis.TopInstructionPICS(br, 3)
			analysis.RenderFig6(io.Discard, tp)
			// Height error of the #1 instruction for TEA.
			pc := tp.PCs[0]
			g := tp.Golden.Insts[pc].Total()
			d := tp.TEA.Insts[pc].Total() - g
			if d < 0 {
				d = -d
			}
			if rel := d / g; rel > worst {
				worst = rel
			}
		}
	}
	b.ReportMetric(100*worst, "tea_top1_height_err_%")
}

// BenchmarkFig7Correlation regenerates the event-count-vs-impact
// correlation study.
func BenchmarkFig7Correlation(b *testing.B) {
	rc := benchConfig()
	var res []analysis.CorrelationResult
	for i := 0; i < b.N; i++ {
		res = analysis.EventCorrelation(analysis.RunSuite(rc))
	}
	for _, r := range res {
		switch r.Event {
		case events.FLMB:
			b.ReportMetric(r.Box.Median, "flmb_median_r")
		case events.STL1:
			b.ReportMetric(r.Box.Median, "stl1_median_r")
		case events.DRSQ:
			b.ReportMetric(r.Box.Median, "drsq_median_r")
		default:
			// only the three headline events from Fig. 7 are reported
		}
	}
}

// BenchmarkFig8FrequencySweep regenerates the sampling-frequency
// sensitivity study.
func BenchmarkFig8FrequencySweep(b *testing.B) {
	rc := benchConfig()
	rc.Scale = 0.1
	// A fresh, memory-only store isolates the capture accounting from
	// the other benchmarks' shared-store traffic so the tentpole
	// invariant is checkable: sweeping N intervals over b.N iterations
	// must capture each workload exactly once, everything else replays.
	prev := analysis.SetTraceStore(analysis.NewTraceStore(analysis.DefaultStoreBudget, ""))
	defer analysis.SetTraceStore(prev)
	start := analysis.CaptureCount()
	var pts []analysis.FrequencyPoint
	for i := 0; i < b.N; i++ {
		pts = analysis.FrequencySweep(rc, []uint64{96, 192, 384, 768})
	}
	if got, want := analysis.CaptureCount()-start, uint64(len(workloads.All())); got != want {
		b.Fatalf("frequency sweep performed %d captures, want exactly %d (one per workload, shared across intervals and iterations)", got, want)
	}
	b.ReportMetric(100*pts[0].Average[profilers.NameTEA], "tea_err_fast_%")
	b.ReportMetric(100*pts[len(pts)-1].Average[profilers.NameTEA], "tea_err_slow_%")
}

// BenchmarkFig9Granularity regenerates the granularity comparison.
func BenchmarkFig9Granularity(b *testing.B) {
	rc := benchConfig()
	var rows []analysis.GranularityRow
	for i := 0; i < b.N; i++ {
		rows = analysis.GranularityStudy(analysis.RunSuite(rc))
	}
	for _, r := range rows {
		if r.Technique == profilers.NameTEA {
			b.ReportMetric(100*r.Instruction, "tea_inst_err_%")
			b.ReportMetric(100*r.Block, "tea_block_err_%")
			b.ReportMetric(100*r.Function, "tea_func_err_%")
		}
		if r.Technique == profilers.NameIBS {
			b.ReportMetric(100*r.Function, "ibs_func_err_%")
		}
	}
}

// BenchmarkFig10LBM regenerates the lbm case-study PICS.
func BenchmarkFig10LBM(b *testing.B) {
	rc := benchConfig()
	var tp analysis.TopPICS
	for i := 0; i < b.N; i++ {
		tp = analysis.CaseStudyLBM(rc)
		analysis.RenderFig6(io.Discard, tp)
	}
	// Fraction of the top instruction's golden stack on LLC misses.
	pc := tp.PCs[0]
	st := tp.Golden.Insts[pc]
	llc := 0.0
	for sig, v := range st {
		if sig.Has(events.STLLC) {
			llc += v
		}
	}
	b.ReportMetric(100*llc/st.Total(), "top1_llc_share_%")
}

// BenchmarkFig11PrefetchSweep regenerates the prefetch-distance sweep.
func BenchmarkFig11PrefetchSweep(b *testing.B) {
	rc := benchConfig()
	var pts []analysis.PrefetchPoint
	for i := 0; i < b.N; i++ {
		pts = analysis.PrefetchSweep(rc, []int{0, 1, 2, 3, 4, 5, 6})
	}
	best := 0.0
	for _, pt := range pts {
		if pt.Speedup > best {
			best = pt.Speedup
		}
	}
	b.ReportMetric(best, "best_speedup_x")
}

// BenchmarkFig12NAB regenerates the nab case study.
func BenchmarkFig12NAB(b *testing.B) {
	rc := benchConfig()
	var st analysis.NABStudy
	for i := 0; i < b.N; i++ {
		st = analysis.CaseStudyNAB(rc)
	}
	b.ReportMetric(st.FastMathSpeedup, "fastmath_speedup_x")
}

// BenchmarkStatStalls regenerates the Section 3 unattributed-stall
// statistic.
func BenchmarkStatStalls(b *testing.B) {
	rc := benchConfig()
	var st analysis.StallStudy
	for i := 0; i < b.N; i++ {
		st = analysis.UnattributedStalls(analysis.RunSuite(rc))
	}
	b.ReportMetric(st.EventFreeP99, "eventfree_p99_cycles")
}

// BenchmarkStatCombined regenerates the combined-event fraction.
func BenchmarkStatCombined(b *testing.B) {
	rc := benchConfig()
	var cs analysis.CombinedStudy
	for i := 0; i < b.N; i++ {
		cs = analysis.CombinedEvents(analysis.RunSuite(rc))
	}
	b.ReportMetric(100*cs.Fraction, "combined_%")
}

// BenchmarkStatOverhead regenerates the overhead study.
func BenchmarkStatOverhead(b *testing.B) {
	rc := benchConfig()
	rc.Interval = 4096
	rc.Jitter = 256
	var o analysis.OverheadStudy
	for i := 0; i < b.N; i++ {
		o = analysis.MeasureOverhead(rc, "exchange2", 40)
	}
	b.ReportMetric(100*o.PerfOverhead, "perf_overhead_%")
	b.ReportMetric(float64(o.Storage.TotalBytes()), "storage_bytes")
	b.ReportMetric(o.Storage.PowerMilliwatts(), "power_mw")
}

// BenchmarkCoreSimulation measures raw simulator throughput (cycles
// simulated per wall-clock second) with no probes attached.
func BenchmarkCoreSimulation(b *testing.B) {
	w, _ := workloads.ByName("fotonik3d")
	var cycles uint64
	for i := 0; i < b.N; i++ {
		c := cpu.New(cpu.DefaultConfig(), w.Build(2000))
		st := c.Run()
		cycles += st.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
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

// BenchmarkDispatchTaggedTEA regenerates the Section 5 cut experiment:
// TEA's events with IBS's dispatch tagging.
func BenchmarkDispatchTaggedTEA(b *testing.B) {
	rc := benchConfig()
	var rows []analysis.DTEARow
	for i := 0; i < b.N; i++ {
		rows = analysis.DispatchTaggedTEA(rc)
	}
	avg := rows[len(rows)-1]
	b.ReportMetric(100*avg.TEA, "tea_err_%")
	b.ReportMetric(100*avg.DTEA, "dtea_err_%")
	b.ReportMetric(100*avg.IBS, "ibs_err_%")
}

// BenchmarkEventSetAblation regenerates the Figure 3 PSV-width ladder.
func BenchmarkEventSetAblation(b *testing.B) {
	rc := benchConfig()
	var rows []analysis.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = analysis.EventSetAblationStudy(rc, "bwaves")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[len(rows)-1].Components), "tea_components")
	b.ReportMetric(float64(rows[0].Components), "tip_components")
}

// BenchmarkTraceCaptureReplay measures the TraceDoctor-style capture
// and offline-replay substrate.
func BenchmarkTraceCaptureReplay(b *testing.B) {
	w, _ := workloads.ByName("bwaves")
	var perCycle float64
	for i := 0; i < b.N; i++ {
		c := cpu.New(cpu.DefaultConfig(), w.Build(1500))
		var buf bytes.Buffer
		tw := trace.NewWriter(&buf)
		c.Attach(tw)
		st := c.Run()
		g := core.NewGolden(nil)
		if _, err := trace.Replay(bytes.NewReader(buf.Bytes()), g); err != nil {
			b.Fatal(err)
		}
		perCycle = float64(buf.Len()) / float64(st.Cycles)
	}
	b.ReportMetric(perCycle, "trace_bytes/cycle")
}

// BenchmarkMulticoreContention regenerates the Section 3 multi-core
// study: per-core TEA accuracy under shared-LLC/DRAM contention.
func BenchmarkMulticoreContention(b *testing.B) {
	rc := benchConfig()
	var st analysis.MulticoreStudy
	for i := 0; i < b.N; i++ {
		var err error
		st, err = analysis.Multicore(rc, "fotonik3d", "lbm")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.Slowdown, "victim_slowdown_x")
	b.ReportMetric(100*st.TEAErrors[0], "victim_tea_err_%")
}

// BenchmarkJitterAblation regenerates the sampler-jitter design-choice
// ablation (DESIGN.md: deterministic jitter decorrelates the sample
// clock from loop periods).
func BenchmarkJitterAblation(b *testing.B) {
	rc := benchConfig()
	rc.Scale = 0.1
	var rows []analysis.JitterRow
	for i := 0; i < b.N; i++ {
		rows = analysis.JitterAblation(rc)
	}
	avg := rows[len(rows)-1]
	b.ReportMetric(100*avg.WithJitter, "jittered_err_%")
	b.ReportMetric(100*avg.WithoutJitter, "fixed_err_%")
}

// BenchmarkSuiteCapture measures raw trace capture for the whole suite.
// Every reported metric except ns/op is a deterministic function of the
// captured trace bytes, so `teadiff -mode bench` against a committed
// BENCH file proves the suite's traces are byte-identical to the ones
// it recorded.
func BenchmarkSuiteCapture(b *testing.B) {
	rc := benchConfig()
	var traceBytes, cycles, digest uint64
	for i := 0; i < b.N; i++ {
		traceBytes, cycles = 0, 0
		digest = 14695981039346656037 // FNV-1a offset basis
		for _, w := range workloads.All() {
			p := w.Build(rc.Iters(w))
			data, st, err := analysis.CaptureTrace(context.Background(), p, rc)
			if err != nil {
				b.Fatal(err)
			}
			traceBytes += uint64(len(data))
			cycles += st.Cycles
			for _, by := range data {
				digest = (digest ^ uint64(by)) * 1099511628211
			}
		}
	}
	b.ReportMetric(float64(traceBytes), "trace_bytes")
	b.ReportMetric(float64(cycles), "suite_cycles")
	// Two exact-in-float64 halves: equal halves mean equal 64-bit
	// digests, i.e. byte-identical suite traces.
	b.ReportMetric(float64(digest>>32), "trace_fnv_hi")
	b.ReportMetric(float64(digest&0xffffffff), "trace_fnv_lo")
}
