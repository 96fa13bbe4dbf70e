// Grid running: the experiments above this layer ask for whole grids
// of (workload, configuration) runs — Figure 5/6/7/9 share one suite
// pass, Figure 8 sweeps the sampling interval across the suite, and the
// probe-only studies replay the suite to their own techniques. Every
// cell takes its capture from the trace store, which simulates each
// (program, core) key once however many cells ask for it, and replays
// it on one goroutine. Captures are interval-independent (sampling
// happens at replay), so an N-point frequency sweep costs one capture
// per workload plus N replays instead of N full suite simulations.
package analysis

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/program"
	"repro/internal/simerr"
	"repro/internal/tracestore"
	"repro/internal/workloads"
)

// captureJob is one (workload, program, config) cell of an experiment
// grid, keyed once: hashing a program's full contents costs about a
// millisecond, and a grid needs the key for every cell's store lookup.
type captureJob struct {
	w   workloads.Workload
	p   *program.Program
	rc  RunConfig
	key tracestore.Key
}

func newCaptureJob(w workloads.Workload, p *program.Program, rc RunConfig) captureJob {
	return captureJob{w: w, p: p, rc: rc, key: captureKey(p, captureConfig(rc))}
}

// suiteJobs builds the one-job-per-workload grid for rc.
func suiteJobs(rc RunConfig) []captureJob {
	all := workloads.All()
	jobs := make([]captureJob, len(all))
	for i, w := range all {
		jobs[i] = newCaptureJob(w, w.Build(rc.iters(w)), rc)
	}
	return jobs
}

// runGrid is the one grid runner: it replays every job under every
// config in rcs to the techniques in sel, GOMAXPROCS cells at a time,
// and returns the runs indexed [config][job]. Each cell captures its
// job on a store miss; cells sharing a capture key share one
// simulation. A grid figure needs every cell, so any failure — a
// capture, a stream, or a single technique — panics with the first
// failing cell's typed error in grid order.
func runGrid(ctx context.Context, jobs []captureJob, rcs []RunConfig, sel []technique) [][]*BenchRun {
	runs := make([][]*BenchRun, len(rcs))
	for c := range rcs {
		runs[c] = make([]*BenchRun, len(jobs))
	}
	fails := make([]*simerr.Error, len(rcs)*len(jobs))
	forEach(len(fails), func(i int) {
		c, j := i/len(jobs), i%len(jobs)
		br, err := jobs[j].run(ctx, rcs[c], sel)
		runs[c][j], fails[i] = br, runFailure(br, err, jobs[j].w.Name, sel)
	})
	for _, se := range fails {
		if se != nil {
			panic(se)
		}
	}
	return runs
}

// forEach calls fn(0) … fn(n-1) on min(GOMAXPROCS, n) goroutines and
// returns once every call has.
func forEach(n int, fn func(i int)) {
	var wg sync.WaitGroup
	work := make(chan int)
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := range n {
		work <- i
	}
	close(work)
	wg.Wait()
}

// SweepSeed derives the sampler seed for one frequency-sweep point
// from the base seed and the interval (a splitmix64-style mix). Every
// (workload, interval) replay gets its own deterministic stream: sweep
// points share capture bytes, so seeding them identically would
// correlate their samplers and turn shared aliasing artifacts into
// systematic sweep-wide bias.
func SweepSeed(base, interval uint64) uint64 {
	z := base + 0x9e3779b97f4a7c15*(interval+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// SweepConfig is the run configuration of one FrequencySweep point:
// the interval is swept, the jitter scales with it (same 1/16 ratio as
// the defaults), and the seed is re-derived per interval via
// SweepSeed. The recorded Profile.Seed of each sweep run exposes the
// derived seed for verification.
func SweepConfig(rc RunConfig, interval uint64) RunConfig {
	rc.Interval = interval
	rc.Jitter = interval / 16
	rc.Seed = SweepSeed(rc.Seed, interval)
	return rc
}
