package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one measured value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the contract every consumer of
// the benchmark parses.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics, its informational lines and the
// checks that failed.
type report struct {
	metrics   map[string]metric
	order     []string
	info      []string
	problems  []string
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note adds an informational line that is printed but not gated.
func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// fail records one failed op or output check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) result() result {
	return result{
		Correct:   r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

func (r *report) print(w io.Writer) {
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-34s %16.6f %s\n", name, m.Value, m.Unit)
	}
	for _, line := range r.info {
		fmt.Fprintln(w, "info", line)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAIL", p)
	}
	fmt.Fprintf(w, "checks: %d ops attempted, %d failed\n", max(r.attempted, 1), r.failed)
}

// quartiles returns the three quartiles of xs by the method of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so the spreads
// printed here match the ones the benchmark is accepted by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	n, m := 4, len(s)+1
	q := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 1)
// and how many samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user plus system time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (Maxrss, KiB on
// Linux) in MiB: since the last resetPeakRSS, or since the start.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS lowers the kernel's peak-RSS mark, which Maxrss reads, to
// the current RSS, so that each window of a run gets its own peak. It
// reports whether the kernel allowed it.
func resetPeakRSS() bool {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err == nil
}

// window is one stretch of a timed phase: one suite pass, or one second
// of serving.
type window struct {
	ops     int
	cpu     time.Duration // process user+sys
	peakRSS float64       // MB
}

// sampled runs fn and cuts its time into one-second windows, each with
// the ops that done counted within it, the process CPU time and the
// peak RSS. The last, partial window is kept only when it is the only
// one.
func sampled(done *atomic.Int64, fn func()) []window {
	var windows []window
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		resetPeakRSS()
		ops, cpu := done.Load(), cpuTime()
		cut := func() {
			n, c := done.Load(), cpuTime()
			windows = append(windows, window{ops: int(n - ops), cpu: c - cpu, peakRSS: peakRSSMB()})
			resetPeakRSS()
			ops, cpu = n, c
		}
		for {
			select {
			case <-stop:
				if len(windows) == 0 {
					cut()
				}
				return
			case <-tick.C:
				cut()
			}
		}
	}()
	fn()
	close(stop)
	wg.Wait()
	return windows
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64 // seconds
	cpu        time.Duration
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		default:
			return math.NaN()
		}
	}
	return runtimeSample{
		allocBytes: val(s[0].Value),
		gcCycles:   val(s[1].Value),
		gcCPU:      val(s[2].Value),
		cpu:        cpuTime(),
	}
}

// setGC reports the gc.* per-layer metrics for the ops run between two
// runtime samples.
func (r *report) setGC(before, after runtimeSample, ops int) {
	n := float64(max(ops, 1))
	frac := math.NaN()
	if cpu := (after.cpu - before.cpu).Seconds(); cpu > 0 {
		frac = (after.gcCPU - before.gcCPU) / cpu
	}
	r.set("gc.cpu_frac", frac, "fraction")
	r.set("gc.alloc_mb_per_op", (after.allocBytes-before.allocBytes)/n/(1<<20), "MB")
	r.set("gc.cycles_per_op", (after.gcCycles-before.gcCycles)/n, "count")
}

// setTimed reports the end-to-end metrics of a timed phase of ops that
// took wall in all.
//
// The host's speed drifts by tens of percent over minutes, and a run
// catches a different share of its slow stretches each time, so the
// gated metrics are the ones that read the same across runs of the same
// code: op_ms_p10, the op time a tenth of the ops beat; cpu_ms_per_op,
// the tenth percentile over the windows of process CPU per op; and
// rss_peak_mb, the median over the windows of each one's peak RSS. The
// median and tail op times, the throughput and the run-wide CPU and peak
// RSS are printed, with their sample counts, but not gated.
func (r *report) setTimed(opMs []float64, windows []window, wall time.Duration, what string) {
	var cpuPerOp, rss []float64
	var cpu time.Duration
	var ops int
	maxRSS := math.Inf(-1)
	for _, w := range windows {
		if w.ops > 0 {
			cpuPerOp = append(cpuPerOp, ms(w.cpu)/float64(w.ops))
		}
		rss = append(rss, w.peakRSS)
		maxRSS = max(maxRSS, w.peakRSS)
		cpu += w.cpu
		ops += w.ops
	}
	p10, _ := percentile(opMs, 0.10)
	cpu10, _ := percentile(cpuPerOp, 0.10)
	r.set("op_ms_p10", p10, "ms")
	r.set("cpu_ms_per_op", cpu10, "ms")
	r.set("rss_peak_mb", median(rss), "MB")

	n := len(opMs)
	p90, beyond90 := percentile(opMs, 0.90)
	p99, beyond99 := percentile(opMs, 0.99)
	r.note("op = %s; %d ops in %.2f s, %.3f ops/s", what, n, wall.Seconds(), float64(n)/wall.Seconds())
	r.note("not gated: op time p50 %.3f ms, p90 %.3f ms (%d samples beyond), p99 %.3f ms (%d beyond)",
		median(opMs), p90, beyond90, p99, beyond99)
	r.note("not gated: %d windows; mean CPU per op %.3f ms; highest window peak RSS %.1f MB",
		len(windows), ms(cpu)/float64(max(ops, 1)), maxRSS)
}

// setSetup reports setup_s, the median of the run's set-up repetitions.
func (r *report) setSetup(setups []float64) {
	r.set("setup_s", median(setups), "s")
	r.note("setup_s is the median of %d set-ups: %v", len(setups), setups)
}
