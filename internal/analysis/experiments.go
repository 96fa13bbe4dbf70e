package analysis

import (
	"context"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/pics"
	"repro/internal/profilers"
	"repro/internal/simerr"
	"repro/internal/stats"
	"repro/internal/workloads"
	"repro/internal/xiter"
)

// TechniqueNames is the Figure 5 technique order.
var TechniqueNames = []string{
	profilers.NameIBS, profilers.NameSPE, profilers.NameRIS,
	profilers.NameNCITEA, profilers.NameTEA,
}

// ---------------------------------------------------------------------------
// Figure 5: PICS error per benchmark and technique.

// AccuracyRow is one benchmark's error per technique.
type AccuracyRow struct {
	Benchmark string
	// Errors maps technique name to the Section 4 error metric at
	// instruction granularity.
	Errors map[string]float64
}

// AccuracyStudy computes Figure 5 from completed runs.
func AccuracyStudy(runs []*BenchRun) []AccuracyRow {
	rows := make([]AccuracyRow, 0, len(runs)+1)
	avg := map[string]float64{}
	for _, br := range runs {
		row := AccuracyRow{Benchmark: br.Workload.Name, Errors: map[string]float64{}}
		for _, prof := range br.Techniques() {
			e := pics.Error(prof, br.Golden)
			row.Errors[prof.Name] = e
			avg[prof.Name] += e
		}
		rows = append(rows, row)
	}
	if len(runs) > 0 {
		mean := AccuracyRow{Benchmark: "average", Errors: map[string]float64{}}
		for _, k := range xiter.SortedKeys(avg) {
			mean.Errors[k] = avg[k] / float64(len(runs))
		}
		rows = append(rows, mean)
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 6: top-3 instruction PICS for IBS, TEA, and the golden
// reference.

// TopPICS holds the Figure 6 data for one benchmark: for each of the
// top-3 instructions (by golden height), the stacks reported by IBS,
// TEA, and the golden reference.
type TopPICS struct {
	Benchmark string
	PCs       []uint64
	IBS       *pics.Profile
	TEA       *pics.Profile
	Golden    *pics.Profile
	Run       *BenchRun
}

// TopInstructionPICS computes Figure 6 for one run. IBS and TEA are
// normalized copies, scaled to the golden total so stack heights are
// comparable; br itself is left untouched, so the other figures read
// the same run unchanged.
func TopInstructionPICS(br *BenchRun, n int) TopPICS {
	total := br.Golden.Total()
	ibs := br.IBS.Project(br.IBS.Set)
	ibs.Normalize(total)
	tea := br.TEA.Project(br.TEA.Set)
	tea.Normalize(total)
	return TopPICS{
		Benchmark: br.Workload.Name,
		PCs:       br.Golden.TopInstructions(n),
		IBS:       ibs,
		TEA:       tea,
		Golden:    br.Golden,
		Run:       br,
	}
}

// Fig6Benchmarks are the four benchmarks Figure 6 reports.
var Fig6Benchmarks = []string{"bwaves", "omnetpp", "fotonik3d", "exchange2"}

// ---------------------------------------------------------------------------
// Figure 7: correlation between event counts and performance impact.

// CorrelationResult is the Figure 7 data for one event: the box plot of
// per-benchmark Pearson correlation coefficients between the event's
// per-instruction count and its per-instruction cycle impact in the
// golden reference, plus a pooled correlation over every static
// instruction of the whole suite. The paper's SPEC benchmarks have
// thousands of event-bearing static instructions each; the synthetic
// kernels have few, so the pooled value is the more robust statistic
// here (DESIGN.md substitution note).
type CorrelationResult struct {
	Event events.Event
	Box   stats.BoxPlot
	// Pooled is the correlation over (instruction, benchmark) points of
	// the whole suite.
	Pooled float64
	// PooledN is the number of pooled points.
	PooledN int
	// PerBenchmark lists (benchmark, r) pairs for inspection.
	PerBenchmark map[string]float64
}

// EventCorrelation computes Figure 7 across the suite.
func EventCorrelation(runs []*BenchRun) []CorrelationResult {
	out := make([]CorrelationResult, 0, events.NumEvents)
	for _, e := range events.AllEvents() {
		res := CorrelationResult{Event: e, PerBenchmark: map[string]float64{}}
		var rs []float64
		var pooledX, pooledY []float64
		for _, br := range runs {
			xs, ys := correlationPoints(br, e)
			// Normalize impact to a per-benchmark fraction so pooling
			// across benchmarks of different lengths is meaningful.
			total := br.Golden.Total()
			for i := range ys {
				pooledX = append(pooledX, xs[i])
				pooledY = append(pooledY, ys[i]/total)
			}
			if len(xs) >= 3 {
				r := stats.Pearson(xs, ys)
				res.PerBenchmark[br.Workload.Name] = r
				rs = append(rs, r)
			}
		}
		res.Box = stats.NewBoxPlot(rs)
		res.Pooled = stats.Pearson(pooledX, pooledY)
		res.PooledN = len(pooledX)
		out = append(out, res)
	}
	return out
}

// correlationPoints collects, for one benchmark and event, the
// (count, impact) pair of every static instruction subjected to the
// event: the count of dynamic executions that saw the event and the
// golden cycles attributed to signatures containing it.
func correlationPoints(br *BenchRun, e events.Event) (xs, ys []float64) {
	for _, pc := range xiter.SortedKeys(br.Golden.Insts) {
		st := br.Golden.Insts[pc]
		count := float64(br.Counters.EventCount(pc, e))
		impact := 0.0
		for _, sig := range xiter.SortedKeys(st) {
			if sig.Has(e) {
				impact += st[sig]
			}
		}
		if count == 0 && impact == 0 {
			continue
		}
		xs = append(xs, count)
		ys = append(ys, impact)
	}
	return xs, ys
}

// ---------------------------------------------------------------------------
// Figure 8: error versus sampling frequency.

// FrequencyPoint is one sweep point: the suite-average error per
// technique at a sampling interval.
type FrequencyPoint struct {
	Interval uint64
	Average  map[string]float64
}

// FrequencySweep computes Figure 8: the suite is re-evaluated at each
// sampling interval. The paper sweeps the sampling frequency (kHz);
// with scaled simulations the interval in cycles is the equivalent
// knob — smaller intervals mean higher frequency.
//
// Sampling happens at replay time, so every sweep point shares one
// capture per workload: each (interval, workload) cell of the grid
// replays that capture under its own SweepConfig (per-interval jitter
// and derived seed).
//
//tealint:ctxroot figure entry point invoked by the experiment CLIs, which have no context to thread
func FrequencySweep(rc RunConfig, intervals []uint64) []FrequencyPoint {
	rcs := make([]RunConfig, len(intervals))
	for i, iv := range intervals {
		rcs[i] = SweepConfig(rc, iv)
	}
	runs := runGrid(context.Background(), suiteJobs(rc), rcs, techniques)
	out := make([]FrequencyPoint, 0, len(intervals))
	for i, iv := range intervals {
		rows := AccuracyStudy(runs[i])
		out = append(out, FrequencyPoint{Interval: iv, Average: rows[len(rows)-1].Errors})
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 9: error at instruction versus function granularity.

// GranularityRow reports a technique's suite-average error at every
// granularity the paper considers (Section 4: instruction, basic
// block, function, and application).
type GranularityRow struct {
	Technique   string
	Instruction float64
	Block       float64
	Function    float64
	Application float64
}

// GranularityStudy computes Figure 9 from completed runs (the paper
// plots instruction and function; it notes basic block and application
// "exhibit the same trends", which this reproduces directly).
func GranularityStudy(runs []*BenchRun) []GranularityRow {
	sumI := map[string]float64{}
	sumB := map[string]float64{}
	sumF := map[string]float64{}
	sumA := map[string]float64{}
	for _, br := range runs {
		for _, prof := range br.Techniques() {
			sumI[prof.Name] += pics.Error(prof, br.Golden)
			sumB[prof.Name] += pics.ErrorByBlock(prof, br.Golden, br.Program)
			sumF[prof.Name] += pics.ErrorByFunction(prof, br.Golden, br.Program)
			sumA[prof.Name] += pics.ErrorApplication(prof, br.Golden)
		}
	}
	out := make([]GranularityRow, 0, len(TechniqueNames))
	n := float64(len(runs))
	for _, name := range TechniqueNames {
		out = append(out, GranularityRow{
			Technique:   name,
			Instruction: sumI[name] / n,
			Block:       sumB[name] / n,
			Function:    sumF[name] / n,
			Application: sumA[name] / n,
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 10/11: the lbm case study.

// PrefetchPoint is one prefetch distance of the Figure 11 sweep.
type PrefetchPoint struct {
	Distance int
	Cycles   uint64
	Speedup  float64
	// LoadStack and StoreStack are the TEA PICS of the most
	// performance-critical load and store instructions.
	LoadPC, StorePC       uint64
	LoadStack, StoreStack pics.Stack
	Run                   *BenchRun
}

// PrefetchSweep computes Figure 11: lbm across prefetch distances,
// one grid cell per distance, so the distances capture and replay in
// parallel.
//
//tealint:ctxroot figure entry point invoked by the experiment CLIs, which have no context to thread
func PrefetchSweep(rc RunConfig, distances []int) []PrefetchPoint {
	w, _ := workloads.ByName("lbm")
	iters := rc.iters(w)
	jobs := make([]captureJob, len(distances))
	for i, d := range distances {
		jobs[i] = newCaptureJob(w, workloads.LBM(iters, d), rc)
	}
	var base uint64
	out := make([]PrefetchPoint, 0, len(distances))
	for i, br := range runGrid(context.Background(), jobs, []RunConfig{rc}, techniques)[0] {
		d := distances[i]
		if d == 0 {
			base = br.Stats.Cycles
		}
		pt := PrefetchPoint{Distance: d, Cycles: br.Stats.Cycles, Run: br}
		pt.LoadPC, pt.LoadStack = topOfClass(br.TEA, br, func(op isa.Op) bool { return isa.IsLoad(op) })
		pt.StorePC, pt.StoreStack = topOfClass(br.TEA, br, isa.IsStore)
		out = append(out, pt)
	}
	for i := range out {
		if base > 0 {
			out[i].Speedup = float64(base) / float64(out[i].Cycles)
		}
	}
	return out
}

// topOfClass returns the tallest-stack instruction of a class.
func topOfClass(prof *pics.Profile, br *BenchRun, match func(isa.Op) bool) (uint64, pics.Stack) {
	var bestPC uint64
	var best pics.Stack
	for _, pc := range xiter.SortedKeys(prof.Insts) {
		st := prof.Insts[pc]
		in := br.Program.Inst(pc)
		if in == nil || !match(in.Op) {
			continue
		}
		if best == nil || st.Total() > best.Total() ||
			(st.Total() == best.Total() && pc < bestPC) {
			bestPC, best = pc, st
		}
	}
	return bestPC, best
}

// CaseStudyLBM computes Figure 10: lbm PICS for TEA, IBS, and the
// golden reference.
func CaseStudyLBM(rc RunConfig) TopPICS {
	w, _ := workloads.ByName("lbm")
	br := RunProgram(w, workloads.LBM(rc.iters(w), 0), rc)
	return TopInstructionPICS(br, 3)
}

// ---------------------------------------------------------------------------
// Figure 12: the nab case study.

// NABStudy holds the Figure 12 data: PICS with the serializing flag
// accesses, plus the measured speedups from removing them (the paper's
// -ffinite-math/-ffast-math options yield 1.96x and 2.45x; both map to
// removing the flushes here, so one fast-math variant is reported).
type NABStudy struct {
	PICS            TopPICS
	BaselineCycles  uint64
	FastMathCycles  uint64
	FastMathSpeedup float64
}

// CaseStudyNAB computes Figure 12. The fast-math variant's cycles are
// its capture's statistics.
//
//tealint:ctxroot figure entry point invoked by the experiment CLIs, which have no context to thread
func CaseStudyNAB(rc RunConfig) NABStudy {
	w, _ := workloads.ByName("nab")
	iters := rc.iters(w)
	br := RunProgram(w, workloads.NAB(iters, false), rc)
	_, fastStats, err := newCaptureJob(w, workloads.NAB(iters, true), rc).capture(context.Background())
	if err != nil {
		panic(asSimErr(err, w.Name))
	}
	return NABStudy{
		PICS:            TopInstructionPICS(br, 5),
		BaselineCycles:  br.Stats.Cycles,
		FastMathCycles:  fastStats.Cycles,
		FastMathSpeedup: float64(br.Stats.Cycles) / float64(fastStats.Cycles),
	}
}

// ---------------------------------------------------------------------------
// Section 3 statistics.

// StallStudy is the unattributed-stall analysis: the distribution of
// commit-stall durations for instructions TEA assigns no event to,
// pooled over the suite (the paper reports p99 = 5.8 cycles).
type StallStudy struct {
	EventFreeP99   float64
	EventFreeP50   float64
	EventFreeCount int
	// FracBelowPaper is the fraction of event-free stalls shorter than
	// the paper's 5.8-cycle p99 threshold.
	FracBelowPaper  float64
	EventStallMean  float64
	EventStallCount int
}

// PaperStallThreshold is the paper's reported p99 of event-free commit
// stalls (5.8 cycles).
const PaperStallThreshold = 5.8

// UnattributedStalls computes the Section 3 stall statistics.
func UnattributedStalls(runs []*BenchRun) StallStudy {
	var free, withEv []float64
	below := 0
	for _, br := range runs {
		free = append(free, br.Stalls.EventFreeStalls...)
		withEv = append(withEv, br.Stalls.EventStalls...)
	}
	for _, d := range free {
		if d < PaperStallThreshold {
			below++
		}
	}
	st := StallStudy{
		EventFreeP99:    stats.Percentile(free, 99),
		EventFreeP50:    stats.Percentile(free, 50),
		EventFreeCount:  len(free),
		EventStallMean:  stats.Mean(withEv),
		EventStallCount: len(withEv),
	}
	if len(free) > 0 {
		st.FracBelowPaper = float64(below) / float64(len(free))
	}
	return st
}

// CombinedStudy is the combined-event statistic of Section 5.2 (the
// paper reports 30.0% of event-subjected executions see combined
// events).
type CombinedStudy struct {
	Fraction     float64
	PerBenchmark []struct {
		Benchmark string
		Fraction  float64
	}
}

// CombinedEvents computes the combined-event statistics.
func CombinedEvents(runs []*BenchRun) CombinedStudy {
	var withEvent, combined uint64
	var cs CombinedStudy
	for _, br := range runs {
		withEvent += br.Events.WithEvent
		combined += br.Events.Combined
		cs.PerBenchmark = append(cs.PerBenchmark, struct {
			Benchmark string
			Fraction  float64
		}{br.Workload.Name, br.Events.CombinedFraction()})
	}
	if withEvent > 0 {
		cs.Fraction = float64(combined) / float64(withEvent)
	}
	return cs
}

// OverheadStudy is the Section 3 overhead summary: storage/power from
// the analytical model, and the measured sampling performance overhead.
type OverheadStudy struct {
	Storage core.Overhead
	// PerfOverhead is the measured slowdown from charging each sample
	// the interrupt cost (the paper reports 1.1%).
	PerfOverhead float64
	// SampleCostCycles is the modeled cost of one sampling interrupt.
	SampleCostCycles uint64
}

// MeasureOverhead runs a benchmark with and without the per-sample
// interrupt cost charged to the core. The per-sample cost is scaled so
// cost/interval matches the paper's regime (an 88-byte sample costs
// roughly 1% of the sampling period). The bare run is the benchmark's
// capture; the loaded run's TEA unit charges the core, so it runs live.
//
//tealint:ctxroot study entry point invoked by the experiment CLIs, which have no context to thread
func MeasureOverhead(rc RunConfig, benchmark string, sampleCost uint64) OverheadStudy {
	w, err := workloads.ByName(benchmark)
	if err != nil {
		// Reachable from CLI flags; typed for boundary recovery.
		panic(simerr.Wrap(simerr.ErrInvalidProgram, simerr.Snapshot{Workload: benchmark},
			err, "overhead study"))
	}
	iters := rc.iters(w)

	_, baseStats, err := newCaptureJob(w, w.Build(iters), rc).capture(context.Background())
	if err != nil {
		panic(asSimErr(err, w.Name))
	}

	loaded := cpu.New(rc.Core, w.Build(iters))
	loaded.SampleOverheadCycles = sampleCost
	tea := core.NewTEA(loaded, rc.teaConfig())
	loaded.Attach(tea)
	loadedStats := loaded.Run()

	return OverheadStudy{
		Storage:          core.NewOverhead(rc.Core),
		PerfOverhead:     float64(loadedStats.Cycles)/float64(baseStats.Cycles) - 1,
		SampleCostCycles: sampleCost,
	}
}
