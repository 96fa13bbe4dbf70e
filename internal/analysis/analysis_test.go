package analysis

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/pics"
	"repro/internal/profilers"
	"repro/internal/workloads"
)

// testConfig is a scaled-down evaluation for unit tests.
func testConfig() RunConfig {
	// Short test runs need dense sampling to keep the sample count per
	// benchmark in the evaluation regime (thousands of samples).
	rc := DefaultRunConfig()
	rc.Scale = 0.15
	rc.Interval = 192
	rc.Jitter = 16
	return rc
}

// suiteOnce caches one scaled suite run across tests in this package.
var suiteCache []*BenchRun

func suite(t *testing.T) []*BenchRun {
	t.Helper()
	if suiteCache == nil {
		suiteCache = RunSuite(testConfig())
	}
	return suiteCache
}

func TestAccuracyStudyShape(t *testing.T) {
	rows := AccuracyStudy(suite(t))
	if len(rows) != len(workloads.All())+1 {
		t.Fatalf("got %d rows, want suite + average", len(rows))
	}
	avg := rows[len(rows)-1]
	if avg.Benchmark != "average" {
		t.Fatalf("last row is %q, want average", avg.Benchmark)
	}
	tea := avg.Errors[profilers.NameTEA]
	nci := avg.Errors[profilers.NameNCITEA]
	ibs := avg.Errors[profilers.NameIBS]
	spe := avg.Errors[profilers.NameSPE]
	ris := avg.Errors[profilers.NameRIS]
	// The paper's headline ordering: TEA (2.1%) < NCI-TEA (11.3%) <<
	// IBS/SPE/RIS (~56%).
	if tea > 0.15 {
		t.Errorf("TEA average error = %.3f, want small", tea)
	}
	if nci < tea {
		t.Errorf("NCI-TEA (%.3f) should be worse than TEA (%.3f)", nci, tea)
	}
	// Fixed iteration order keeps failure messages stable across runs
	// (ranging over a map literal reports in random order).
	for _, c := range []struct {
		name string
		err  float64
	}{{"IBS", ibs}, {"SPE", spe}, {"RIS", ris}} {
		if c.err < 2*nci || c.err < 0.25 {
			t.Errorf("%s average error = %.3f; front-end tagging should be far worse (TEA=%.3f, NCI=%.3f)",
				c.name, c.err, tea, nci)
		}
	}
	// Every error is a valid fraction.
	for _, row := range rows {
		for tech, e := range row.Errors {
			if e < 0 || e > 1 {
				t.Errorf("%s/%s error %v out of [0,1]", row.Benchmark, tech, e)
			}
		}
	}
}

func TestTopInstructionPICS(t *testing.T) {
	w, _ := workloads.ByName("bwaves")
	br := RunBenchmark(w, testConfig())
	profileJSON := func() string {
		var buf bytes.Buffer
		for _, p := range []*pics.Profile{br.TEA, br.IBS} {
			if err := p.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	before := profileJSON()
	tp := TopInstructionPICS(br, 3)
	// The run is shared with the other figures, so normalizing for
	// Figure 6 must not rescale it.
	if profileJSON() != before {
		t.Error("TopInstructionPICS rescaled the run's TEA/IBS profiles")
	}
	if len(tp.PCs) != 3 {
		t.Fatalf("got %d top instructions, want 3", len(tp.PCs))
	}
	// Heights must be descending in the golden profile.
	prev := -1.0
	for i, pc := range tp.PCs {
		h := tp.Golden.Insts[pc].Total()
		if prev >= 0 && h > prev {
			t.Errorf("top instruction %d taller than %d", i, i-1)
		}
		prev = h
	}
	// TEA's height for the #1 instruction must be close to golden;
	// IBS's should not be (non-time-proportionality).
	pc := tp.PCs[0]
	g := tp.Golden.Insts[pc].Total()
	teaH := tp.TEA.Insts[pc].Total()
	if rel := abs(teaH-g) / g; rel > 0.25 {
		t.Errorf("TEA top-1 height off by %.0f%%", 100*rel)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestEventCorrelationShape(t *testing.T) {
	res := EventCorrelation(suite(t))
	if len(res) != events.NumEvents {
		t.Fatalf("got %d events, want %d", len(res), events.NumEvents)
	}
	byEvent := map[events.Event]CorrelationResult{}
	for _, r := range res {
		byEvent[r.Event] = r
		if r.Box.Min < -1-1e-9 || r.Box.Max > 1+1e-9 {
			t.Errorf("%s correlation outside [-1,1]: %+v", r.Event, r.Box)
		}
	}
	// The paper's finding: flush events correlate strongly (they cannot
	// be hidden).
	if mb := byEvent[events.FLMB]; mb.Box.N > 0 && mb.Box.Median < 0.5 {
		t.Errorf("FL-MB median correlation = %.2f, want strong", mb.Box.Median)
	}
}

func TestGranularityStudy(t *testing.T) {
	rows := GranularityStudy(suite(t))
	if len(rows) != 5 {
		t.Fatalf("got %d techniques, want 5", len(rows))
	}
	for _, r := range rows {
		// Coarser granularities cannot have more error than finer ones
		// (merging units can only help).
		if r.Block > r.Instruction+1e-9 {
			t.Errorf("%s: block error %.3f exceeds instruction error %.3f",
				r.Technique, r.Block, r.Instruction)
		}
		if r.Function > r.Block+1e-9 {
			t.Errorf("%s: function error %.3f exceeds block error %.3f",
				r.Technique, r.Function, r.Block)
		}
		if r.Application > r.Function+1e-9 {
			t.Errorf("%s: application error %.3f exceeds function error %.3f",
				r.Technique, r.Application, r.Function)
		}
	}
	// TEA is uniformly the most accurate at both granularities.
	var tea, ibs GranularityRow
	for _, r := range rows {
		switch r.Technique {
		case profilers.NameTEA:
			tea = r
		case profilers.NameIBS:
			ibs = r
		}
	}
	if tea.Instruction >= ibs.Instruction || tea.Function >= ibs.Function {
		t.Errorf("TEA should beat IBS at both granularities: %+v vs %+v", tea, ibs)
	}
	// The paper: error does not collapse at function granularity for
	// front-end taggers because cycles are systematically misattributed
	// to the wrong events.
	if ibs.Function < ibs.Instruction/20 {
		t.Errorf("IBS function error %.4f collapsed relative to instruction error %.4f",
			ibs.Function, ibs.Instruction)
	}
}

func TestPrefetchSweep(t *testing.T) {
	rc := testConfig()
	pts := PrefetchSweep(rc, []int{0, 2, 4})
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].Speedup != 1.0 {
		t.Errorf("distance-0 speedup = %v, want 1.0", pts[0].Speedup)
	}
	if pts[1].Speedup < 1.05 {
		t.Errorf("distance-2 speedup = %.2f, want > 1.05", pts[1].Speedup)
	}
	// The top load's LLC-miss share must shrink with prefetching.
	llcShare := func(p PrefetchPoint) float64 {
		if p.LoadStack == nil {
			return 0
		}
		var llc float64
		for sig, v := range p.LoadStack {
			if sig.Has(events.STLLC) {
				llc += v
			}
		}
		return llc
	}
	if llcShare(pts[1]) > llcShare(pts[0])/2 {
		t.Errorf("prefetching did not reduce the top load's LLC-miss cycles: %v -> %v",
			llcShare(pts[0]), llcShare(pts[1]))
	}
	for _, pt := range pts {
		if pt.LoadStack == nil || pt.StoreStack == nil {
			t.Errorf("distance %d missing load/store stacks", pt.Distance)
		}
	}
}

func TestCaseStudyNAB(t *testing.T) {
	st := CaseStudyNAB(testConfig())
	if st.FastMathSpeedup < 1.4 {
		t.Errorf("nab fast-math speedup = %.2f, paper reports 1.96-2.45x", st.FastMathSpeedup)
	}
	// The FL-EX flush cost must be visible in the golden PICS.
	flex := 0.0
	for _, stk := range st.PICS.Golden.Insts {
		for sig, v := range stk {
			if sig.Has(events.FLEX) {
				flex += v
			}
		}
	}
	if flex == 0 {
		t.Errorf("nab golden PICS shows no FL-EX cycles")
	}
}

func TestUnattributedStalls(t *testing.T) {
	s := UnattributedStalls(suite(t))
	if s.EventFreeCount == 0 {
		t.Fatalf("no event-free stalls recorded")
	}
	// Shape: the vast majority of event-free stalls are short relative
	// to event-carrying stalls (the paper reports p99 = 5.8 cycles vs
	// memory-event stalls of tens-to-hundreds of cycles).
	if s.EventFreeP50 > 30 {
		t.Errorf("median event-free stall = %.1f cycles, want short", s.EventFreeP50)
	}
	if s.EventStallCount > 0 && s.EventFreeP50 > s.EventStallMean {
		t.Errorf("median event-free stall %.1f exceeds mean event stall %.1f",
			s.EventFreeP50, s.EventStallMean)
	}
}

func TestCombinedEvents(t *testing.T) {
	c := CombinedEvents(suite(t))
	if c.Fraction <= 0.02 || c.Fraction >= 0.9 {
		t.Errorf("combined-event fraction = %.3f; paper reports 30%% — combined events must be present but not dominant", c.Fraction)
	}
	if len(c.PerBenchmark) != len(workloads.All()) {
		t.Errorf("per-benchmark rows missing")
	}
}

func TestMeasureOverhead(t *testing.T) {
	// Use the evaluation interval: overhead is cost/interval, and the
	// dense test interval would inflate it artificially.
	rc := testConfig()
	rc.Interval = 4096
	rc.Jitter = 256
	o := MeasureOverhead(rc, "exchange2", 40)
	if o.PerfOverhead <= 0 {
		t.Errorf("sampling overhead = %v, want positive", o.PerfOverhead)
	}
	if o.PerfOverhead > 0.15 {
		t.Errorf("sampling overhead = %.1f%%, implausibly high", 100*o.PerfOverhead)
	}
	if o.Storage.TotalBytes() < 200 {
		t.Errorf("storage model missing: %+v", o.Storage)
	}
}

func TestFrequencySweepMonotoneish(t *testing.T) {
	rc := testConfig()
	rc.Scale = 0.05
	pts := FrequencySweep(rc, []uint64{512, 4096})
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	// Denser sampling cannot be dramatically worse for TEA.
	lo, hi := pts[0].Average[profilers.NameTEA], pts[1].Average[profilers.NameTEA]
	if lo > hi+0.1 {
		t.Errorf("TEA error at interval 512 (%.3f) much worse than at 4096 (%.3f)", lo, hi)
	}
}

func TestRenderers(t *testing.T) {
	runs := suite(t)
	var buf bytes.Buffer
	RenderTable1(&buf)
	RenderTable2(&buf, testConfig().Core)
	RenderFig3(&buf)
	RenderFig5(&buf, AccuracyStudy(runs))
	for _, br := range runs {
		if br.Workload.Name == "bwaves" {
			RenderFig6(&buf, TopInstructionPICS(br, 3))
		}
	}
	RenderFig7(&buf, EventCorrelation(runs))
	RenderFig9(&buf, GranularityStudy(runs))
	RenderStallStudy(&buf, UnattributedStalls(runs))
	RenderCombined(&buf, CombinedEvents(runs))
	RenderOverhead(&buf, MeasureOverhead(testConfig(), "exchange2", 40))
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Figure 3", "Figure 5", "Figure 6", "Figure 7",
		"Figure 9", "ST-LLC", "192-entry ROB", "average", "TEA",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}
