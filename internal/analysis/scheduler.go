// Suite scheduling: the experiments above this layer ask for whole
// grids of (workload, configuration) runs — Figure 5/6/7/9 share one
// suite pass, Figure 8 sweeps the sampling interval across the suite.
// The scheduler enumerates every capture such a grid needs, collapses
// duplicates by cache key, performs each distinct capture exactly once
// (in parallel across workloads), and then fans the cheap replays out
// from the shared bytes. Captures are interval-independent (sampling
// happens at replay), so an N-point frequency sweep costs one capture
// per workload plus N replays instead of N full suite simulations.
package analysis

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/cpu"
	"repro/internal/pics"
	"repro/internal/program"
	"repro/internal/simerr"
	"repro/internal/tracestore"
	"repro/internal/workloads"
)

// captureJob is one (workload, program, config) cell of an experiment
// grid, keyed once: hashing a program's full contents costs about a
// millisecond, and a grid needs the key for the dedupe, the capture
// and every replay's store lookup.
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

// scheduleCaptures captures each distinct (program, core) pair of the
// grid exactly once, in parallel across the available CPUs. Jobs that
// share a capture key — identical programs, or configs differing only
// in sampling knobs — are collapsed before any simulation starts, so
// parallelism is spent on distinct work (the per-key singleflight in
// the store is only a backstop for concurrent unrelated callers).
// After it returns, every job's capture is in the store and replays
// are pure cache hits.
func scheduleCaptures(ctx context.Context, jobs []captureJob) error {
	seen := make(map[tracestore.Key]bool, len(jobs))
	distinct := make([]captureJob, 0, len(jobs))
	for _, j := range jobs {
		if !seen[j.key] {
			seen[j.key] = true
			distinct = append(distinct, j)
		}
	}
	errs := make([]error, len(distinct))
	forEach(len(distinct), func(i int) {
		_, _, errs[i] = distinct[i].capture(ctx)
	})
	// Deterministic error selection: the first failing job in grid
	// order, regardless of which goroutine hit it.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runGrid is the grid runner of RunSuite, FrequencySweep and
// PrefetchSweep: it schedules the jobs' captures, then replays every
// job under every config in rcs, GOMAXPROCS cells at a time, returning
// the runs indexed [config][job]. A grid figure needs every cell, so
// any failure — a capture, a stream, or a single technique — panics
// with the first failing cell's typed error in grid order.
func runGrid(ctx context.Context, jobs []captureJob, rcs []RunConfig) [][]*BenchRun {
	if err := scheduleCaptures(ctx, jobs); err != nil {
		panic(asSimErr(err, ""))
	}
	runs := make([][]*BenchRun, len(rcs))
	for c := range rcs {
		runs[c] = make([]*BenchRun, len(jobs))
	}
	fails := make([]*simerr.Error, len(rcs)*len(jobs))
	forEach(len(fails), func(i int) {
		c, j := i/len(jobs), i%len(jobs)
		br, err := jobs[j].run(ctx, rcs[c], techniques)
		runs[c][j], fails[i] = br, runFailure(br, err, jobs[j].w.Name)
	})
	for _, se := range fails {
		if se != nil {
			panic(se)
		}
	}
	return runs
}

// replayProfiles is the grid runner of the studies that build their
// own probes: it replays each job's capture, simulating only on a store
// miss, to the probes build returns, and returns each job's profiles in
// probe order. Like runGrid, it panics with the first failing job's
// typed error once every job has returned.
func replayProfiles(ctx context.Context, jobs []captureJob, build func() []cpu.Probe) [][]*pics.Profile {
	profs := make([][]*pics.Profile, len(jobs))
	errs := make([]error, len(jobs))
	forEach(len(jobs), func(i int) {
		profs[i], errs[i] = jobs[i].profiles(ctx, build)
	})
	for i, err := range errs {
		if err != nil {
			panic(asSimErr(err, jobs[i].w.Name))
		}
	}
	return profs
}

// profiles replays j's capture to the probes build returns. It builds
// them inside its recover scope, so an invalid configuration's panic
// comes back typed instead of unwinding a worker goroutine.
func (j captureJob) profiles(ctx context.Context, build func() []cpu.Probe) (profs []*pics.Profile, err error) {
	defer simerr.Recover(&err, simerr.Snapshot{Workload: j.w.Name, Program: j.p.Name})
	probes := build()
	data, _, err := j.capture(ctx)
	if err != nil {
		return nil, err
	}
	perr, err := replayContained(ctx, data, simerr.Snapshot{Workload: j.w.Name}, probes...)
	if perr != nil {
		return nil, perr
	}
	if err != nil {
		return nil, err
	}
	for _, pr := range probes {
		profs = append(profs, pr.(profiler).Profile())
	}
	return profs, nil
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
