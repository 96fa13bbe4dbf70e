package repro_test

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchfile"
	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/pics"
	"repro/internal/profilers"
	"repro/internal/workloads"
	"repro/internal/xiter"
)

// TestPaperNumbers recomputes every metric of the committed
// BENCH_2026-08-08_v4codec.json and requires each to print exactly as
// recorded: Figure 5's accuracy gap, every other table, figure and
// Section 3/5 statistic, and the substrate benchmarks' deterministic
// metrics, all at the harness scale (benchConfig). A deliberate
// accuracy change edits the file by hand.
func TestPaperNumbers(t *testing.T) {
	prev := analysis.SetTraceStore(analysis.NewTraceStore(analysis.DefaultStoreBudget, ""))
	defer analysis.SetTraceStore(prev)
	rc := benchConfig()
	suite := analysis.RunSuite(rc)

	// Each benchmark's metrics are independent of the others', so they
	// are computed as parallel subtests; most studies are serial.
	var mu sync.Mutex
	got := map[string]map[string]float64{}
	t.Run("compute", func(t *testing.T) {
		for _, b := range paperBenchmarks(rc, suite) {
			t.Run(b.name, func(t *testing.T) {
				t.Parallel()
				m := b.metrics(t)
				mu.Lock()
				defer mu.Unlock()
				got[b.name] = m
			})
		}
	})
	msgs, err := benchfile.Drift("BENCH_2026-08-08_v4codec.json", got)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		t.Error(m)
	}

	// Scheduling invariance: the same suite on a fresh store with one
	// OS thread, so one capture and one replay at a time, must give
	// byte-identical profiles and cycle counts.
	analysis.SetTraceStore(analysis.NewTraceStore(analysis.DefaultStoreBudget, ""))
	procs := runtime.GOMAXPROCS(1)
	serial := analysis.RunSuite(rc)
	runtime.GOMAXPROCS(procs)
	for i, br := range suite {
		name := br.Workload.Name
		if c1, cn := serial[i].Stats.Cycles, br.Stats.Cycles; c1 != cn {
			t.Errorf("%s: %d cycles at GOMAXPROCS=1, %d at the default", name, c1, cn)
		}
		for _, tech := range analysis.ProfileTechniques() {
			if !bytes.Equal(profileJSON(t, serial[i].Profile(tech)), profileJSON(t, br.Profile(tech))) {
				t.Errorf("%s/%s: profile differs between GOMAXPROCS=1 and the default", name, tech)
			}
		}
	}
}

// paperBenchmark computes one benchmark entry of the committed file.
type paperBenchmark struct {
	name    string
	metrics func(t *testing.T) map[string]float64
}

// paperBenchmarks lists every entry of the committed file, in its
// order. Figures 5, 6, 7 and 9 and the two stall statistics read
// suite, the RunSuite at rc.
func paperBenchmarks(rc analysis.RunConfig, suite []*analysis.BenchRun) []paperBenchmark {
	return []paperBenchmark{
		{"Table1EventSets", func(*testing.T) map[string]float64 {
			analysis.RenderTable1(io.Discard)
			return map[string]float64{
				"tea_psv_bits": float64(events.TEASet.Bits()),
				"ibs_psv_bits": float64(events.IBSSet.Bits()),
			}
		}},
		{"Table2Config", func(*testing.T) map[string]float64 {
			cfg := cpu.DefaultConfig()
			analysis.RenderTable2(io.Discard, cfg)
			return map[string]float64{"rob_entries": float64(cfg.ROBEntries)}
		}},
		{"Fig1Quickstart", func(*testing.T) map[string]float64 {
			quick := rc
			quick.Scale = 0.05
			w, _ := workloads.ByName("bwaves")
			br := analysis.RunBenchmark(w, quick)
			return map[string]float64{"tea_err_%": 100 * pics.Error(br.TEA, br.Golden)}
		}},
		{"Fig5Accuracy", func(*testing.T) map[string]float64 {
			rows := analysis.AccuracyStudy(suite)
			avg := rows[len(rows)-1].Errors
			return map[string]float64{
				"tea_err_%": 100 * avg[profilers.NameTEA],
				"nci_err_%": 100 * avg[profilers.NameNCITEA],
				"ibs_err_%": 100 * avg[profilers.NameIBS],
				"spe_err_%": 100 * avg[profilers.NameSPE],
				"ris_err_%": 100 * avg[profilers.NameRIS],
			}
		}},
		{"Fig6TopPICS", func(*testing.T) map[string]float64 {
			// Height error of TEA's #1 instruction, worst over the panels.
			worst := 0.0
			for _, br := range suite {
				for _, name := range analysis.Fig6Benchmarks {
					if br.Workload.Name != name {
						continue
					}
					tp := analysis.TopInstructionPICS(br, 3)
					analysis.RenderFig6(io.Discard, tp)
					pc := tp.PCs[0]
					g := tp.Golden.Insts[pc].Total()
					d := tp.TEA.Insts[pc].Total() - g
					worst = max(worst, max(d, -d)/g)
				}
			}
			return map[string]float64{"tea_top1_height_err_%": 100 * worst}
		}},
		{"Fig7Correlation", func(*testing.T) map[string]float64 {
			m := map[string]float64{}
			for _, r := range analysis.EventCorrelation(suite) {
				switch r.Event {
				case events.FLMB:
					m["flmb_median_r"] = r.Box.Median
				case events.STL1:
					m["stl1_median_r"] = r.Box.Median
				case events.DRSQ:
					m["drsq_median_r"] = r.Box.Median
				default:
					// only the three headline events of Fig. 7 are pinned
				}
			}
			return m
		}},
		{"Fig8FrequencySweep", func(*testing.T) map[string]float64 {
			sweep := rc
			sweep.Scale = 0.1
			pts := analysis.FrequencySweep(sweep, []uint64{96, 192, 384, 768})
			return map[string]float64{
				"tea_err_fast_%": 100 * pts[0].Average[profilers.NameTEA],
				"tea_err_slow_%": 100 * pts[len(pts)-1].Average[profilers.NameTEA],
			}
		}},
		{"Fig9Granularity", func(*testing.T) map[string]float64 {
			m := map[string]float64{}
			for _, r := range analysis.GranularityStudy(suite) {
				switch r.Technique {
				case profilers.NameTEA:
					m["tea_inst_err_%"] = 100 * r.Instruction
					m["tea_block_err_%"] = 100 * r.Block
					m["tea_func_err_%"] = 100 * r.Function
				case profilers.NameIBS:
					m["ibs_func_err_%"] = 100 * r.Function
				}
			}
			return m
		}},
		{"Fig10LBM", func(*testing.T) map[string]float64 {
			// Share of the top instruction's golden stack on LLC misses.
			tp := analysis.CaseStudyLBM(rc)
			analysis.RenderFig6(io.Discard, tp)
			st := tp.Golden.Insts[tp.PCs[0]]
			llc := 0.0
			for _, sig := range xiter.SortedKeys(st) {
				if sig.Has(events.STLLC) {
					llc += st[sig]
				}
			}
			return map[string]float64{"top1_llc_share_%": 100 * llc / st.Total()}
		}},
		{"Fig11PrefetchSweep", func(*testing.T) map[string]float64 {
			best := 0.0
			for _, pt := range analysis.PrefetchSweep(rc, []int{0, 1, 2, 3, 4, 5, 6}) {
				best = max(best, pt.Speedup)
			}
			return map[string]float64{"best_speedup_x": best}
		}},
		{"Fig12NAB", func(*testing.T) map[string]float64 {
			return map[string]float64{"fastmath_speedup_x": analysis.CaseStudyNAB(rc).FastMathSpeedup}
		}},
		{"StatStalls", func(*testing.T) map[string]float64 {
			return map[string]float64{"eventfree_p99_cycles": analysis.UnattributedStalls(suite).EventFreeP99}
		}},
		{"StatCombined", func(*testing.T) map[string]float64 {
			return map[string]float64{"combined_%": 100 * analysis.CombinedEvents(suite).Fraction}
		}},
		{"StatOverhead", func(*testing.T) map[string]float64 {
			ovh := rc
			ovh.Interval = 4096
			ovh.Jitter = 256
			o := analysis.MeasureOverhead(ovh, "exchange2", 40)
			return map[string]float64{
				"perf_overhead_%": 100 * o.PerfOverhead,
				"storage_bytes":   float64(o.Storage.TotalBytes()),
				"power_mw":        o.Storage.PowerMilliwatts(),
			}
		}},
		{"CoreSimulation", func(*testing.T) map[string]float64 { return coreSimulation() }},
		{"GoldenReference", func(*testing.T) map[string]float64 { return nil }}, // recorded without metrics
		{"DispatchTaggedTEA", func(*testing.T) map[string]float64 {
			rows := analysis.DispatchTaggedTEA(rc)
			avg := rows[len(rows)-1]
			return map[string]float64{
				"tea_err_%":  100 * avg.TEA,
				"dtea_err_%": 100 * avg.DTEA,
				"ibs_err_%":  100 * avg.IBS,
			}
		}},
		{"EventSetAblation", func(t *testing.T) map[string]float64 {
			rows, err := analysis.EventSetAblationStudy(rc, "bwaves")
			if err != nil {
				t.Fatal(err)
			}
			return map[string]float64{
				"tea_components": float64(rows[len(rows)-1].Components),
				"tip_components": float64(rows[0].Components),
			}
		}},
		{"TraceCaptureReplay", func(t *testing.T) map[string]float64 {
			m, err := captureReplay()
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"MulticoreContention", func(t *testing.T) map[string]float64 {
			st, err := analysis.Multicore(rc, "fotonik3d", "lbm")
			if err != nil {
				t.Fatal(err)
			}
			return map[string]float64{
				"victim_slowdown_x": st.Slowdown,
				"victim_tea_err_%":  100 * st.TEAErrors[0],
			}
		}},
		{"JitterAblation", func(*testing.T) map[string]float64 {
			jit := rc
			jit.Scale = 0.1
			rows := analysis.JitterAblation(jit)
			avg := rows[len(rows)-1]
			return map[string]float64{
				"jittered_err_%": 100 * avg.WithJitter,
				"fixed_err_%":    100 * avg.WithoutJitter,
			}
		}},
		{"SuiteCapture", func(t *testing.T) map[string]float64 {
			m, err := suiteCapture(rc)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
	}
}

func profileJSON(t *testing.T, p *pics.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
