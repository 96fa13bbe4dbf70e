package analysis

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/pics"
)

// RenderTable1 prints the Table 1 event matrix (events per technique).
func RenderTable1(w io.Writer) {
	fmt.Fprintf(w, "Table 1: The performance events of TEA, IBS, SPE, and RIS.\n\n")
	fmt.Fprintf(w, "%-8s %-40s %-4s %-4s %-4s %-4s\n", "Event", "Description", "TEA", "IBS", "SPE", "RIS")
	mark := func(s events.Set, e events.Event) string {
		if s.Has(e) {
			return "y"
		}
		return "-"
	}
	for _, e := range events.AllEvents() {
		fmt.Fprintf(w, "%-8s %-40s %-4s %-4s %-4s %-4s\n",
			e.String(), e.Description(),
			mark(events.TEASet, e), mark(events.IBSSet, e),
			mark(events.SPESet, e), mark(events.RISSet, e))
	}
	fmt.Fprintf(w, "\nPSV bits: TEA=%d IBS=%d SPE=%d RIS=%d\n",
		events.TEASet.Bits(), events.IBSSet.Bits(), events.SPESet.Bits(), events.RISSet.Bits())
}

// RenderTable2 prints the Table 2 architecture configuration.
func RenderTable2(w io.Writer, cfg cpu.Config) {
	fmt.Fprintf(w, "Table 2: Baseline architecture configuration.\n\n%s", cfg.Describe())
}

// RenderFig3 prints the Figure 3 event hierarchy for each commit state.
func RenderFig3(w io.Writer) {
	fmt.Fprintf(w, "Figure 3: Performance event hierarchies by commit state.\n")
	for _, s := range []events.CommitState{events.Stalled, events.Drained, events.Flushed} {
		fmt.Fprintf(w, "\n%s:\n", s)
		var walk func(n *events.HierarchyNode, depth int)
		walk = func(n *events.HierarchyNode, depth int) {
			if !n.IsRoot {
				fmt.Fprintf(w, "%*s%s (%s)\n", depth*2, "", n.Event, n.Event.Description())
			}
			for _, c := range n.Children {
				walk(c, depth+1)
			}
		}
		walk(events.Hierarchy(s), 0)
	}
	fmt.Fprintf(w, "\nDependent event: %s can only occur after %s (root of its chain).\n",
		events.STLLC, events.RootOf(events.STLLC))
}

// RenderFig5 prints the Figure 5 accuracy table.
func RenderFig5(w io.Writer, rows []AccuracyRow) {
	fmt.Fprintf(w, "Figure 5: PICS error per benchmark (instruction granularity, vs golden reference).\n\n")
	fmt.Fprintf(w, "%-12s", "benchmark")
	for _, t := range TechniqueNames {
		fmt.Fprintf(w, " %8s", t)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%-12s", row.Benchmark)
		for _, t := range TechniqueNames {
			fmt.Fprintf(w, " %7.1f%%", 100*row.Errors[t])
		}
		fmt.Fprintln(w)
	}
}

// RenderFig6 prints one benchmark's Figure 6 panel.
func RenderFig6(w io.Writer, tp TopPICS) {
	total := tp.Golden.Total()
	fmt.Fprintf(w, "Figure 6 (%s): top-3 instruction PICS — IBS vs TEA vs golden reference (GR).\n",
		tp.Benchmark)
	for rank, pc := range tp.PCs {
		in := tp.Run.Program.Inst(pc)
		dis := "?"
		if in != nil {
			dis = in.String()
		}
		fmt.Fprintf(w, "\n#%d  %#08x  %s  [%s]\n", rank+1, pc, dis, tp.Run.Program.FuncOfPC(pc))
		fmt.Fprintf(w, "  GR : height %6.2f%%\n%s", 100*tp.Golden.Insts[pc].Total()/total,
			renderStack(tp.Golden.Insts[pc], total))
		fmt.Fprintf(w, "  TEA: height %6.2f%%\n%s", 100*tp.TEA.Insts[pc].Total()/total,
			renderStack(tp.TEA.Insts[pc], total))
		fmt.Fprintf(w, "  IBS: height %6.2f%%\n%s", 100*tp.IBS.Insts[pc].Total()/total,
			renderStack(tp.IBS.Insts[pc], total))
	}
}

func renderStack(st pics.Stack, total float64) string {
	if st == nil {
		return "       (no samples)\n"
	}
	out := ""
	for _, sig := range st.SortedSignatures() {
		v := st[sig]
		if v/total < 0.0005 {
			continue
		}
		out += fmt.Sprintf("       %-24s %6.2f%%\n", sig.String(), 100*v/total)
	}
	return out
}

// RenderFig7 prints the Figure 7 correlation box plots.
func RenderFig7(w io.Writer, res []CorrelationResult) {
	fmt.Fprintf(w, "Figure 7: Pearson correlation between per-instruction event counts and their\n")
	fmt.Fprintf(w, "performance impact (golden reference), across benchmarks.\n\n")
	fmt.Fprintf(w, "%-8s %6s %6s %6s %6s %6s %4s | %7s %5s\n",
		"event", "min", "q1", "med", "q3", "max", "n", "pooled", "pts")
	for _, r := range res {
		fmt.Fprintf(w, "%-8s %6.2f %6.2f %6.2f %6.2f %6.2f %4d | %7.2f %5d\n",
			r.Event.String(), r.Box.Min, r.Box.Q1, r.Box.Median, r.Box.Q3, r.Box.Max, r.Box.N,
			r.Pooled, r.PooledN)
	}
	fmt.Fprintf(w, "\n(pooled = correlation over every event-bearing static instruction of the\n")
	fmt.Fprintf(w, " suite; the synthetic kernels have few such instructions per benchmark)\n")
}

// RenderFig8 prints the Figure 8 frequency sweep.
func RenderFig8(w io.Writer, pts []FrequencyPoint) {
	fmt.Fprintf(w, "Figure 8: suite-average error versus sampling interval (cycles; smaller = higher frequency).\n\n")
	fmt.Fprintf(w, "%-10s", "interval")
	for _, t := range TechniqueNames {
		fmt.Fprintf(w, " %8s", t)
	}
	fmt.Fprintln(w)
	for _, pt := range pts {
		fmt.Fprintf(w, "%-10d", pt.Interval)
		for _, t := range TechniqueNames {
			fmt.Fprintf(w, " %7.1f%%", 100*pt.Average[t])
		}
		fmt.Fprintln(w)
	}
}

// RenderFig9 prints the Figure 9 granularity comparison.
func RenderFig9(w io.Writer, rows []GranularityRow) {
	fmt.Fprintf(w, "Figure 9: suite-average error by analysis granularity.\n\n")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s\n", "technique", "instruction", "block", "function", "application")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n",
			r.Technique, 100*r.Instruction, 100*r.Block, 100*r.Function, 100*r.Application)
	}
}

// RenderFig11 prints the Figure 11 prefetch sweep.
func RenderFig11(w io.Writer, pts []PrefetchPoint) {
	fmt.Fprintf(w, "Figure 11: lbm PICS and speedup across prefetch distances.\n\n")
	for _, pt := range pts {
		fmt.Fprintf(w, "distance %d: %d cycles, speedup %.2fx\n", pt.Distance, pt.Cycles, pt.Speedup)
		total := pt.Run.Golden.Total()
		if pt.LoadStack != nil {
			in := pt.Run.Program.Inst(pt.LoadPC)
			fmt.Fprintf(w, "  top load  %-22s\n%s", in.String(), renderStack(pt.LoadStack, total))
		}
		if pt.StoreStack != nil {
			in := pt.Run.Program.Inst(pt.StorePC)
			fmt.Fprintf(w, "  top store %-22s\n%s", in.String(), renderStack(pt.StoreStack, total))
		}
	}
}

// RenderFig12 prints the Figure 12 nab study.
func RenderFig12(w io.Writer, st NABStudy) {
	RenderFig6(w, st.PICS)
	fmt.Fprintf(w, "\nnab baseline: %d cycles; fast-math (serializing flag accesses removed): %d cycles\n",
		st.BaselineCycles, st.FastMathCycles)
	fmt.Fprintf(w, "fast-math speedup: %.2fx (paper: 1.96x with -finite-math, 2.45x with -fast-math)\n",
		st.FastMathSpeedup)
}

// RenderStallStudy prints the Section 3 unattributed-stall statistic.
func RenderStallStudy(w io.Writer, s StallStudy) {
	fmt.Fprintf(w, "Unattributed commit stalls (instructions with empty PSV):\n")
	fmt.Fprintf(w, "  p50 = %.1f cycles, p99 = %.1f cycles over %d stalls\n",
		s.EventFreeP50, s.EventFreeP99, s.EventFreeCount)
	fmt.Fprintf(w, "  %.1f%% are shorter than the paper's 5.8-cycle threshold\n", 100*s.FracBelowPaper)
	fmt.Fprintf(w, "  (paper: 99%% of event-free stalls < 5.8 cycles; this suite is\n")
	fmt.Fprintf(w, "   deliberately FP-chain-heavy — see EXPERIMENTS.md)\n")
	fmt.Fprintf(w, "Event-carrying stalls: mean %.1f cycles over %d stalls\n",
		s.EventStallMean, s.EventStallCount)
}

// RenderCombined prints the combined-event statistic.
func RenderCombined(w io.Writer, c CombinedStudy) {
	fmt.Fprintf(w, "Combined events: %.1f%% of event-subjected dynamic executions saw >= 2 events\n", 100*c.Fraction)
	fmt.Fprintf(w, "(paper: 30.0%%)\n\n")
	for _, pb := range c.PerBenchmark {
		fmt.Fprintf(w, "  %-12s %5.1f%%\n", pb.Benchmark, 100*pb.Fraction)
	}
}

// RenderOverhead prints the Section 3 overhead summary.
func RenderOverhead(w io.Writer, o OverheadStudy) {
	fmt.Fprintf(w, "TEA hardware overhead (Section 3):\n\n%s\n", o.Storage.Describe())
	fmt.Fprintf(w, "Sample CSR occupancy: %d of 64 bits; sample size %d B\n",
		core.CSRBits(4), core.SampleBytes)
	fmt.Fprintf(w, "Measured sampling performance overhead: %.2f%% (per-sample cost %d cycles)\n",
		100*o.PerfOverhead, o.SampleCostCycles)
	fmt.Fprintf(w, "(paper: 1.1%% performance overhead)\n")
}
