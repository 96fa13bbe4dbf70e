// Command teaexp regenerates the paper's tables and figures. Each
// experiment ID maps to one artifact of the evaluation (see DESIGN.md):
//
//	teaexp tab1       Table 1: event sets per technique
//	teaexp tab2       Table 2: architecture configuration
//	teaexp fig1       Figure 1: worked TEA example
//	teaexp fig3       Figure 3: event hierarchies
//	teaexp fig5       Figure 5: PICS error per benchmark
//	teaexp fig6       Figure 6: top-3 instruction PICS (4 benchmarks)
//	teaexp fig7       Figure 7: event count vs impact correlation
//	teaexp fig8       Figure 8: error vs sampling interval
//	teaexp fig9       Figure 9: instruction vs function granularity
//	teaexp fig10      Figure 10: lbm case study PICS
//	teaexp fig11      Figure 11: lbm prefetch-distance sweep
//	teaexp fig12      Figure 12: nab case study
//	teaexp dtea       dispatch-tagged TEA (evaluated, cut for space)
//	teaexp ablation   Figure 3 event-set (PSV width) ladder
//	teaexp multicore  per-core TEA under shared-LLC contention (§3)
//	teaexp jitter     sampler-jitter ablation (aliasing with loop periods)
//	teaexp stat-stall Section 3: unattributed commit stalls
//	teaexp stat-comb  Section 5.2: combined-event fraction
//	teaexp stat-ovh   Section 3: storage/power/performance overheads
//	teaexp all        everything above
//
// Flags: -scale trades evaluation size for runtime; -interval sets the
// sampling period in cycles; -tracecache points the content-addressed
// trace store at a directory (default $TEA_TRACE_CACHE), so repeated
// invocations replay persisted captures instead of re-simulating.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"

	"repro/internal/analysis"
	"repro/internal/profio"
	"repro/internal/workloads"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload size multiplier")
	interval := flag.Uint64("interval", 256, "sampling interval in cycles")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	tracecache := flag.String("tracecache", os.Getenv("TEA_TRACE_CACHE"),
		"directory for the persistent trace cache (\"\" disables the disk tier)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: teaexp [-scale f] [-interval n] <experiment-id|all>")
		os.Exit(2)
	}
	if *interval == 0 {
		fmt.Fprintln(os.Stderr, "teaexp: -interval must be positive")
		os.Exit(2)
	}
	if !(*scale > 0) || math.IsInf(*scale, 0) {
		fmt.Fprintln(os.Stderr, "teaexp: -scale must be a positive finite number")
		os.Exit(2)
	}

	rc := analysis.DefaultRunConfig()
	rc.Scale = *scale
	rc.Interval = *interval
	rc.Jitter = *interval / 16
	if *tracecache != "" {
		analysis.SetTraceStore(analysis.NewTraceStore(analysis.DefaultStoreBudget, *tracecache))
	}

	id := flag.Arg(0)
	err := profio.Profiled(*cpuprofile, *memprofile, func() error {
		if id == "all" {
			for _, e := range []string{
				"tab1", "tab2", "fig1", "fig3", "fig5", "fig6", "fig7", "fig8",
				"fig9", "fig10", "fig11", "fig12", "dtea", "ablation", "jitter", "multicore",
				"stat-stall", "stat-comb", "stat-ovh",
			} {
				fmt.Printf("================ %s ================\n", e)
				if err := run(e, rc); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		}
		return run(id, rc)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "teaexp:", err)
		os.Exit(1)
	}
}

// suiteRuns caches the suite for experiments sharing it within one
// "all" invocation.
var suiteRuns []*analysis.BenchRun

func suite(rc analysis.RunConfig) []*analysis.BenchRun {
	if suiteRuns == nil {
		suiteRuns = analysis.RunSuite(rc)
	}
	return suiteRuns
}

func run(id string, rc analysis.RunConfig) error {
	out := os.Stdout
	switch id {
	case "tab1":
		analysis.RenderTable1(out)
	case "tab2":
		analysis.RenderTable2(out, rc.Core)
	case "fig1":
		quickstartExample(out, rc)
	case "fig3":
		analysis.RenderFig3(out)
	case "fig5":
		analysis.RenderFig5(out, analysis.AccuracyStudy(suite(rc)))
	case "fig6":
		for _, br := range suite(rc) {
			for _, name := range analysis.Fig6Benchmarks {
				if br.Workload.Name == name {
					analysis.RenderFig6(out, analysis.TopInstructionPICS(br, 3))
					fmt.Fprintln(out)
				}
			}
		}
	case "fig7":
		analysis.RenderFig7(out, analysis.EventCorrelation(suite(rc)))
	case "fig8":
		iv := rc.Interval
		// A small -interval's sub-cycle points are dropped, not sampled.
		sweep := slices.DeleteFunc([]uint64{iv / 4, iv / 2, iv, iv * 2, iv * 4, iv * 8},
			func(v uint64) bool { return v == 0 })
		analysis.RenderFig8(out, analysis.FrequencySweep(rc, sweep))
	case "fig9":
		analysis.RenderFig9(out, analysis.GranularityStudy(suite(rc)))
	case "fig10":
		tp := analysis.CaseStudyLBM(rc)
		analysis.RenderFig6(out, tp)
	case "fig11":
		analysis.RenderFig11(out, analysis.PrefetchSweep(rc, []int{0, 1, 2, 3, 4, 5, 6}))
	case "fig12":
		analysis.RenderFig12(out, analysis.CaseStudyNAB(rc))
	case "stat-stall":
		analysis.RenderStallStudy(out, analysis.UnattributedStalls(suite(rc)))
	case "stat-comb":
		analysis.RenderCombined(out, analysis.CombinedEvents(suite(rc)))
	case "jitter":
		analysis.RenderJitter(out, analysis.JitterAblation(rc))
	case "multicore":
		st, err := analysis.Multicore(rc, "fotonik3d", "lbm")
		if err != nil {
			return err
		}
		analysis.RenderMulticore(out, st)
	case "dtea":
		analysis.RenderDTEA(out, analysis.DispatchTaggedTEA(rc))
	case "ablation":
		rows, err := analysis.EventSetAblationStudy(rc, "bwaves")
		if err != nil {
			return err
		}
		analysis.RenderAblation(out, "bwaves", rows)
	case "stat-ovh":
		// The overhead ratio is cost/interval. Measure it at the paper's
		// regime: a perf-style sampling interrupt (~45 cycles to read
		// the CSRs and write the 88-byte sample) against a period that
		// is ~1% of that cost — independent of the accuracy-experiment
		// interval, which is scaled for sample density.
		ovhRC := rc
		ovhRC.Interval = 4096
		ovhRC.Jitter = 256
		analysis.RenderOverhead(out, analysis.MeasureOverhead(ovhRC, "exchange2", 45))
	default:
		return fmt.Errorf("unknown experiment %q (try: tab1 tab2 fig1 fig3 fig5..fig12 dtea ablation jitter multicore stat-stall stat-comb stat-ovh all)", id)
	}
	return nil
}

// quickstartExample reproduces the spirit of Figure 1: a small loop,
// TEA samples, and the resulting PICS.
func quickstartExample(out *os.File, rc analysis.RunConfig) {
	w, err := workloads.ByName("bwaves")
	if err != nil {
		fmt.Fprintln(os.Stderr, "teaexp:", err)
		os.Exit(1)
	}
	small := rc
	small.Scale = 0.05
	br := analysis.RunBenchmark(w, small)
	fmt.Fprintf(out, "Figure 1 (worked example): TEA PICS for a small %s run\n\n", w.Name)
	total := br.Golden.Total()
	for _, pc := range br.TEA.TopInstructions(4) {
		fmt.Fprint(out, br.TEA.RenderInstruction(pc, br.Program, total))
	}
	fmt.Fprintf(out, "\n(each component is a (combination of) performance event(s); 'Base' = no events)\n")
}
