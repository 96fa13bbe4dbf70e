package analysis

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cpu"
	"repro/internal/pics"
)

// JitterRow compares TEA's accuracy with and without sample-clock
// jitter on one benchmark. Statistical profilers randomize the sampling
// period to avoid locking onto loop periods; this ablation validates
// that design choice on the suite's highly regular kernels — the
// failure mode a fixed-period sampler invites.
type JitterRow struct {
	Benchmark     string
	WithJitter    float64
	WithoutJitter float64
}

// JitterAblation runs TEA with the configured jitter and with jitter
// disabled on every benchmark's capture, against its golden reference.
//
//tealint:ctxroot figure entry point invoked by the experiment CLIs, which have no context to thread
func JitterAblation(rc RunConfig) []JitterRow {
	fixed := rc
	fixed.Jitter = 0
	jobs := suiteJobs(rc)
	profs := replayProfiles(context.Background(), jobs, func() []cpu.Probe {
		return []cpu.Probe{techniqueByName("golden").probe(rc), techniqueByName("tea").probe(rc),
			techniqueByName("tea").probe(fixed)}
	})
	var rows []JitterRow
	var sumJ, sumN float64
	for i, p := range profs {
		row := JitterRow{
			Benchmark:     jobs[i].w.Name,
			WithJitter:    pics.Error(p[1], p[0]),
			WithoutJitter: pics.Error(p[2], p[0]),
		}
		sumJ += row.WithJitter
		sumN += row.WithoutJitter
		rows = append(rows, row)
	}
	n := float64(len(rows))
	rows = append(rows, JitterRow{Benchmark: "average", WithJitter: sumJ / n, WithoutJitter: sumN / n})
	return rows
}

// RenderJitter prints the jitter ablation.
func RenderJitter(w io.Writer, rows []JitterRow) {
	fmt.Fprintf(w, "Sampler-jitter ablation: TEA error with the default jitter versus a\n")
	fmt.Fprintf(w, "fixed-period sample clock (aliasing with loop periods).\n\n")
	fmt.Fprintf(w, "%-12s %12s %12s\n", "benchmark", "jittered", "fixed")
	for _, r := range rows {
		marker := ""
		if r.WithoutJitter > 2*r.WithJitter && r.WithoutJitter > 0.05 {
			marker = "  <- aliasing"
		}
		fmt.Fprintf(w, "%-12s %11.1f%% %11.1f%%%s\n",
			r.Benchmark, 100*r.WithJitter, 100*r.WithoutJitter, marker)
	}
}
