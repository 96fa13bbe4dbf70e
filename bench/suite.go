package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/profilers"
	"repro/internal/program"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// fig5Order is the order of the Figure 5 averages a suite pass reports.
var fig5Order = [5]string{profilers.NameTEA, profilers.NameNCITEA, profilers.NameIBS, profilers.NameSPE, profilers.NameRIS}

// The seed-independent capture invariants of one cold suite pass at
// scale 0.25, and the Figure 5 averages (percent, 4 significant digits)
// at seed 1, as committed in BENCH_2026-08-08_v4codec.json.
const (
	committedScale   = 0.25
	committedCycles  = 2856591
	committedEncoded = 388366
)

var committedFig5 = [5]string{"6.407", "16.33", "63.57", "64.16", "66.32"}

// suiteConfig is the configuration of the repository's bench_test.go
// harness, at the run's scale and seed.
func suiteConfig(o options) analysis.RunConfig {
	rc := analysis.DefaultRunConfig()
	rc.Scale, rc.Interval, rc.Jitter, rc.Seed = o.scale, 192, 16, o.seed
	return rc
}

// passResult is what one suite pass produced that every pass of the run
// must reproduce, plus the pass's store and capture traffic.
type passResult struct {
	cycles   uint64
	encoded  uint64 // v4 bytes the pass's captures wrote
	captures uint64
	hits     uint64
	misses   uint64
	puts     uint64
	fig5     [5]float64 // Figure 5 average errors in fig5Order, in percent
}

// suitePass runs analysis.RunSuite once on an empty trace store, so every
// workload is captured again, and returns what it produced, its wall
// time and its process CPU time.
func suitePass(rc analysis.RunConfig) (passResult, time.Duration, time.Duration) {
	analysis.SetTraceStore(analysis.NewTraceStore(analysis.DefaultStoreBudget, ""))
	store := analysis.TraceStore()
	s0, c0, n0 := store.Snapshot(), analysis.CodecTotalStats(), analysis.CaptureCount()
	u0, t0 := cpuTime(), time.Now()
	runs := analysis.RunSuite(rc)
	wall, cpu := time.Since(t0), cpuTime()-u0
	s1 := store.Snapshot()
	r := passResult{
		encoded:  analysis.CodecTotalStats().EncodedBytes - c0.EncodedBytes,
		captures: analysis.CaptureCount() - n0,
		hits:     s1.Hits - s0.Hits,
		misses:   s1.Misses - s0.Misses,
		puts:     s1.Puts - s0.Puts,
		fig5:     fig5(runs),
	}
	for _, br := range runs {
		r.cycles += br.Stats.Cycles
	}
	return r, wall, cpu
}

// fig5 returns the Figure 5 average row of one suite's runs.
func fig5(runs []*analysis.BenchRun) [5]float64 {
	rows := analysis.AccuracyStudy(runs)
	avg := rows[len(rows)-1].Errors
	var out [5]float64
	for i, name := range fig5Order {
		out[i] = 100 * avg[name]
	}
	return out
}

// checkPass compares a timed pass with the run's reference pass.
func checkPass(rep *report, what string, got, ref passResult) {
	switch {
	case got.cycles != ref.cycles:
		rep.fail("%s: %d suite cycles, reference pass had %d", what, got.cycles, ref.cycles)
	case got.encoded != ref.encoded || got.captures != ref.captures:
		rep.fail("%s: %d captures writing %d v4 bytes, want %d writing %d", what, got.captures, got.encoded, ref.captures, ref.encoded)
	case got.fig5 != ref.fig5:
		rep.fail("%s: Figure 5 averages %v differ from the reference pass's %v", what, got.fig5, ref.fig5)
	}
}

// checkCommitted compares the reference pass with the committed
// invariants where the run's configuration matches theirs.
func checkCommitted(rep *report, o options, ref passResult) {
	if o.scale != committedScale {
		return
	}
	if ref.cycles != committedCycles || ref.encoded != committedEncoded {
		rep.fail("cold pass: %d cycles and %d v4 bytes, committed %d and %d", ref.cycles, ref.encoded, committedCycles, committedEncoded)
	}
	if o.seed != 1 {
		return
	}
	for i, v := range ref.fig5 {
		if got := strconv.FormatFloat(v, 'g', 4, 64); got != committedFig5[i] {
			rep.fail("Figure 5 %s average %s%%, committed %s%%", fig5Order[i], got, committedFig5[i])
		}
	}
}

// runSuite runs suite-cold. Set-up is one RunSuite pass on a fresh
// store, which gives the reference every timed pass must reproduce;
// every timed pass starts from a fresh store too.
func runSuite(ctx context.Context, o options, rep *report, tr *tracer) error {
	rc := suiteConfig(o)
	var ref passResult
	setups := make([]float64, o.setups)
	for i := range setups {
		t0 := time.Now()
		r, _, _ := suitePass(rc)
		setups[i] = time.Since(t0).Seconds()
		if i > 0 && r != ref {
			rep.fail("set-up pass %d differs from set-up pass 1", i+1)
		}
		ref = r
	}
	checkCommitted(rep, o, ref)
	budget := time.Duration(o.seconds * float64(time.Second))
	untraced := func() (passResult, time.Duration, time.Duration) {
		r, wall, cpu := suitePass(rc)
		rep.attempted++
		checkPass(rep, fmt.Sprintf("pass %d", rep.attempted), r, ref)
		return r, wall, cpu
	}

	if !o.trace {
		var wall time.Duration
		var windows []window
		opMs, err := passLoop(budget, o.maxOps, func() (time.Duration, error) {
			resetPeakRSS()
			_, w, c := untraced()
			windows = append(windows, window{ops: 1, cpu: c, peakRSS: peakRSSMB()})
			wall += w
			return w, nil
		})
		if err != nil {
			return err
		}
		rep.setSetup(setups)
		rep.setTimed(opMs, windows, wall, "one RunSuite pass")
		return nil
	}

	// Traced run: every layer on its own, then RunSuite passes
	// alternating with traced passes, so that both kinds run on the same
	// heap and in the same machine weather.
	names := workloads.Names()
	if err := measureLayers(ctx, names, rc, serve.AllTechniques, tr, rep); err != nil {
		return err
	}
	var last passResult
	var gc runtimeSample // summed over the untraced passes
	var untracedMs, tracedMs []float64
	_, err := passLoop(budget, o.maxOps, func() (time.Duration, error) {
		rt0 := readRuntime()
		r, w, _ := untraced()
		rt1 := readRuntime()
		gc = runtimeSample{
			allocBytes: gc.allocBytes + rt1.allocBytes - rt0.allocBytes,
			gcCycles:   gc.gcCycles + rt1.gcCycles - rt0.gcCycles,
			gcCPU:      gc.gcCPU + rt1.gcCPU - rt0.gcCPU,
			cpu:        gc.cpu + rt1.cpu - rt0.cpu,
		}
		last = r
		untracedMs = append(untracedMs, ms(w))

		got, d, err := tracedSuitePass(ctx, rc, names, tr)
		if err != nil {
			return 0, err
		}
		rep.attempted++
		if got != ref.fig5 {
			rep.fail("traced pass: Figure 5 averages %v differ from the reference pass's %v", got, ref.fig5)
		}
		tracedMs = append(tracedMs, ms(d))
		return w + d, nil
	})
	if err != nil {
		return err
	}
	rep.set("analysis.captures", float64(last.captures), "count/op")
	rep.set("tracestore.hits", float64(last.hits), "count/op")
	rep.set("tracestore.misses", float64(last.misses), "count/op")
	rep.set("tracestore.puts", float64(last.puts), "count/op")
	rep.setGC(runtimeSample{}, gc, len(untracedMs))
	rep.set("bench.trace_overhead_frac", median(tracedMs)/median(untracedMs)-1, "fraction")
	rep.note("trace overhead: traced pass median %.1f ms against RunSuite median %.1f ms, %d alternating pairs",
		median(tracedMs), median(untracedMs), len(tracedMs))
	return probeServing(ctx, o, names, serve.AllTechniques, true, tr, rep)
}

// tracedSuitePass is one suite pass made of public calls, with RunSuite's
// two phases and parallelism: every capture, then every replay. It
// returns the pass's Figure 5 averages and wall time.
func tracedSuitePass(ctx context.Context, rc analysis.RunConfig, names []string, tr *tracer) ([5]float64, time.Duration, error) {
	var runs []*analysis.BenchRun
	t0 := time.Now()
	err := tr.timed(0, "bench.suite_pass", "suite", func(pass uint64) error {
		ws := make([]workloads.Workload, len(names))
		progs := make([]*program.Program, len(names))
		for i, name := range names {
			w, err := workloads.ByName(name)
			if err != nil {
				return err
			}
			ws[i] = w
			progs[i] = w.Build(rc.Iters(w))
		}
		data := make([][]byte, len(names))
		if err := parallel(len(names), func(i int) error {
			return tr.timed(pass, "analysis.CaptureTrace", names[i], func(uint64) error {
				d, _, err := analysis.CaptureTrace(ctx, progs[i], rc)
				data[i] = d
				return err
			})
		}); err != nil {
			return err
		}
		runs = make([]*analysis.BenchRun, len(names))
		return parallel(len(names), func(i int) error {
			return tr.timed(pass, "analysis.ReplayCaptured", names[i], func(uint64) error {
				br, err := analysis.ReplayCaptured(ctx, ws[i], progs[i], rc, data[i])
				runs[i] = br
				return err
			})
		})
	})
	wall := time.Since(t0)
	if err != nil {
		return [5]float64{}, 0, err
	}
	return fig5(runs), wall, nil
}

// passLoop runs pass until budget has elapsed or maxOps passes have run,
// and at least once. It returns each pass's time, as pass reports it, in
// milliseconds.
func passLoop(budget time.Duration, maxOps int, pass func() (time.Duration, error)) ([]float64, error) {
	var durs []float64
	start := time.Now()
	for len(durs) == 0 || (time.Since(start) < budget && (maxOps == 0 || len(durs) < maxOps)) {
		d, err := pass()
		if err != nil {
			return durs, err
		}
		durs = append(durs, ms(d))
	}
	return durs, nil
}

// parallel runs fn(0..n-1) on as many goroutines as RunSuite uses (two
// on the reference runner) and returns the first error in index order.
func parallel(n int, fn func(i int) error) error {
	par := min(runtime.GOMAXPROCS(0), n)
	errs := make([]error, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for p := 0; p < par; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
