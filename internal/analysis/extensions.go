package analysis

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/pics"
	"repro/internal/profilers"
	"repro/internal/workloads"
	"repro/internal/xiter"
)

// DTEARow compares dispatch-tagged TEA against TEA and IBS on one
// benchmark — the configuration the paper evaluated but cut for space
// (Section 5): same nine events as TEA, same tagging as IBS. Its error
// tracking IBS's demonstrates that time-proportional selection, not the
// richer event set, is what makes TEA accurate.
type DTEARow struct {
	Benchmark string
	TEA       float64
	DTEA      float64
	IBS       float64
}

// DispatchTaggedTEA runs the D-TEA comparison on the suite's captures,
// with the registry's golden, TEA and IBS.
//
//tealint:ctxroot figure entry point invoked by the experiment CLIs, which have no context to thread
func DispatchTaggedTEA(rc RunConfig) []DTEARow {
	jobs := suiteJobs(rc)
	profs := replayProfiles(context.Background(), jobs, func() []cpu.Probe {
		return []cpu.Probe{techniqueByName("golden").probe(rc), techniqueByName("tea").probe(rc),
			profilers.NewDTEA(rc.Interval, rc.Jitter, rc.Seed+5), techniqueByName("ibs").probe(rc)}
	})
	var rows []DTEARow
	var sum DTEARow
	for i, p := range profs {
		row := DTEARow{
			Benchmark: jobs[i].w.Name,
			TEA:       pics.Error(p[1], p[0]),
			DTEA:      pics.Error(p[2], p[0]),
			IBS:       pics.Error(p[3], p[0]),
		}
		rows = append(rows, row)
		sum.TEA += row.TEA
		sum.DTEA += row.DTEA
		sum.IBS += row.IBS
	}
	n := float64(len(rows))
	rows = append(rows, DTEARow{Benchmark: "average", TEA: sum.TEA / n, DTEA: sum.DTEA / n, IBS: sum.IBS / n})
	return rows
}

// RenderDTEA prints the dispatch-tagged-TEA comparison.
func RenderDTEA(w io.Writer, rows []DTEARow) {
	fmt.Fprintf(w, "Dispatch-tagged TEA (Section 5: evaluated, omitted for space in the paper).\n")
	fmt.Fprintf(w, "D-TEA = TEA's nine events + IBS's dispatch tagging.\n\n")
	fmt.Fprintf(w, "%-12s %8s %8s %8s\n", "benchmark", "TEA", "D-TEA", "IBS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %7.1f%% %7.1f%% %7.1f%%\n",
			r.Benchmark, 100*r.TEA, 100*r.DTEA, 100*r.IBS)
	}
	fmt.Fprintf(w, "\nD-TEA tracks IBS, not TEA: the event set is not what separates them —\n")
	fmt.Fprintf(w, "time-proportional sample selection is.\n")
}

// AblationRow is one rung of the Figure 3 PSV-width ladder on one
// benchmark.
type AblationRow struct {
	Rung string
	Bits int
	// Error is the sampling error against a golden reference projected
	// onto the same event set.
	Error float64
	// Components is the number of distinct cycle-stack components the
	// configuration can distinguish on this run — the interpretability
	// axis of the tradeoff.
	Components int
}

// EventSetAblationStudy runs the Figure 3 event-set ladder on one
// benchmark's capture.
//
//tealint:ctxroot figure entry point invoked by the experiment CLIs, which have no context to thread
func EventSetAblationStudy(rc RunConfig, benchmark string) ([]AblationRow, error) {
	w, err := workloads.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	ladder := profilers.AblationLadder()
	job := newCaptureJob(w, w.Build(rc.iters(w)), rc)
	profs := replayProfiles(context.Background(), []captureJob{job}, func() []cpu.Probe {
		probes := []cpu.Probe{techniqueByName("golden").probe(rc)}
		for _, rung := range ladder {
			cfg := rc.teaConfig()
			cfg.Set = rung.Set
			probes = append(probes, core.NewTEA(nil, cfg))
		}
		return probes
	})[0]
	golden, rungs := profs[0], profs[1:]
	rows := make([]AblationRow, len(rungs))
	for i, prof := range rungs {
		comps := map[events.PSV]bool{}
		for _, pc := range xiter.SortedKeys(prof.Insts) {
			for _, sig := range xiter.SortedKeys(prof.Insts[pc]) {
				comps[sig] = true
			}
		}
		rows[i] = AblationRow{
			Rung:       ladder[i].Name,
			Bits:       ladder[i].Set.Bits(),
			Error:      pics.Error(prof, golden),
			Components: len(comps),
		}
	}
	return rows, nil
}

// RenderAblation prints the event-set ladder.
func RenderAblation(w io.Writer, benchmark string, rows []AblationRow) {
	fmt.Fprintf(w, "Figure 3 ablation (%s): PSV width versus interpretability.\n", benchmark)
	fmt.Fprintf(w, "Error is measured against a golden reference projected onto the same\n")
	fmt.Fprintf(w, "event set, so it isolates sampling accuracy; the interpretability cost\n")
	fmt.Fprintf(w, "of a narrow PSV shows in the distinct-component count.\n\n")
	fmt.Fprintf(w, "%-32s %5s %8s %11s\n", "event set", "bits", "error", "components")
	for _, r := range rows {
		fmt.Fprintf(w, "%-32s %5d %7.1f%% %11d\n", r.Rung, r.Bits, 100*r.Error, r.Components)
	}
}
