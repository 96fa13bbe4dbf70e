// Package analysis is the experiment harness: it runs the benchmark
// suite with every profiling technique attached to one simulation (the
// paper's single-trace, out-of-band evaluation methodology) and
// regenerates the rows and series of every table and figure in the
// paper's evaluation (Section 4-6). DESIGN.md maps each experiment ID
// to the modules involved.
package analysis

import (
	"bytes"
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/pics"
	"repro/internal/profilers"
	"repro/internal/program"
	"repro/internal/simerr"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// RunConfig parameterizes one evaluation run.
type RunConfig struct {
	// Interval is the sampling period in cycles. The paper samples at
	// 4 KHz on 3.2 GHz hardware (one sample per 800,000 cycles over
	// minutes-long runs); simulated runs are scaled down, so the
	// default interval keeps the per-run sample count comparable.
	Interval uint64
	// Jitter decorrelates the sample clock from loop periods.
	Jitter uint64
	// Seed drives the sample-clock jitter.
	Seed uint64
	// Scale multiplies each workload's default iteration count
	// (1.0 = the evaluation size; tests use smaller values).
	Scale float64
	// Core is the core configuration (Table 2 defaults).
	Core cpu.Config
}

// DefaultRunConfig returns the evaluation configuration. The sampling
// interval is scaled with the run lengths: the paper samples once per
// 800,000 cycles over trillion-cycle SPEC runs (~1.5M samples, tens of
// samples per hot static instruction); the simulated kernels run for
// ~10^6 cycles with ~10^2 hot static instructions, so a 256-cycle
// interval keeps the samples-per-instruction density in the same
// regime. The interval is a flag in cmd/teaexp and swept in Figure 8.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Interval: 256,
		Jitter:   16,
		Seed:     1,
		Scale:    1.0,
		Core:     cpu.DefaultConfig(),
	}
}

func (rc RunConfig) iters(w workloads.Workload) int {
	n := int(float64(w.DefaultIters) * rc.Scale)
	if n < 2 {
		n = 2
	}
	return n
}

// Iters returns the iteration count rc's Scale implies for w — the
// sizing RunBenchmark applies. Exported so out-of-package callers (the
// teaserve job builder) construct programs byte-identical to a local
// harness run with the same configuration.
func (rc RunConfig) Iters(w workloads.Workload) int { return rc.iters(w) }

// teaConfig is the registry tea's configuration under rc, which every
// other TEA unit a study builds varies.
func (rc RunConfig) teaConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.IntervalCycles = rc.Interval
	cfg.JitterCycles = rc.Jitter
	cfg.Seed = rc.Seed
	return cfg
}

// BenchRun holds everything one simulation produced: the golden
// reference, every technique's profile, event counters, and the
// auxiliary statistics probes.
type BenchRun struct {
	Workload workloads.Workload
	Program  *program.Program
	Stats    *cpu.Stats

	Golden   *pics.Profile
	TEA      *pics.Profile
	NCITEA   *pics.Profile
	IBS      *pics.Profile
	SPE      *pics.Profile
	RIS      *pics.Profile
	Counters *profilers.Counters
	Events   *profilers.EventStats
	Stalls   *profilers.StallProbe

	// Errors records techniques whose probe failed during replay,
	// keyed by technique name. A failed technique's profile is nil;
	// the remaining techniques are complete and trustworthy. The
	// fault-free path always leaves the map empty.
	Errors map[string]error

	// profiles holds every selected profiling technique's profile by
	// technique name; the typed fields above repeat the registry's.
	profiles map[string]*pics.Profile
}

// Techniques returns the sampled techniques' profiles in evaluation
// order (IBS, SPE, RIS, NCI-TEA, TEA — the Figure 5 order).
func (br *BenchRun) Techniques() []*pics.Profile {
	return []*pics.Profile{br.IBS, br.SPE, br.RIS, br.NCITEA, br.TEA}
}

// Profile returns the named technique's profile — a registry name
// ("golden", "tea", "nci-tea", "ibs", "spe", "ris") or a study's own
// technique — or nil when the run did not produce it: the technique
// was not run, failed, or yields no profile.
func (br *BenchRun) Profile(name string) *pics.Profile { return br.profiles[name] }

// RunBenchmark simulates one workload with every technique attached.
func RunBenchmark(w workloads.Workload, rc RunConfig) *BenchRun {
	return RunProgram(w, w.Build(rc.iters(w)), rc)
}

// technique is a named probe and how to build it for a run: an entry
// of the registry below, or a study's own probe (D-TEA, a fixed-period
// TEA, an event-set rung) replayed alongside registry entries.
type technique struct {
	name string
	// probe builds the technique's probe for replay under rc.
	probe func(rc RunConfig) cpu.Probe
	// stats stores a statistics probe in its BenchRun field; nil for a
	// profiling technique, whose PICS profile BenchRun.Profile returns.
	stats func(br *BenchRun, pr cpu.Probe)
}

// profiler is a probe that materializes a PICS profile.
type profiler interface {
	Profile() *pics.Profile
}

// techniques is the registry, in evaluation order. Each sampled
// technique draws its sample clock from its own seed offset (Seed,
// Seed+1 … Seed+4), so the techniques sample decorrelated cycles
// whether they replay together or alone.
var techniques = []technique{
	{name: "golden",
		probe: func(RunConfig) cpu.Probe { return core.NewGolden(nil) }},
	{name: "tea",
		probe: func(rc RunConfig) cpu.Probe { return core.NewTEA(nil, rc.teaConfig()) }},
	{name: "nci-tea",
		probe: func(rc RunConfig) cpu.Probe { return profilers.NewNCITEA(rc.Interval, rc.Jitter, rc.Seed+1) }},
	{name: "ibs",
		probe: func(rc RunConfig) cpu.Probe { return profilers.NewIBS(rc.Interval, rc.Jitter, rc.Seed+2) }},
	{name: "spe",
		probe: func(rc RunConfig) cpu.Probe { return profilers.NewSPE(rc.Interval, rc.Jitter, rc.Seed+3) }},
	{name: "ris",
		probe: func(rc RunConfig) cpu.Probe { return profilers.NewRIS(rc.Interval, rc.Jitter, rc.Seed+4) }},
	{name: "counters",
		probe: func(RunConfig) cpu.Probe { return profilers.NewCounters() },
		stats: func(br *BenchRun, pr cpu.Probe) { br.Counters = pr.(*profilers.Counters) }},
	{name: "events",
		probe: func(RunConfig) cpu.Probe { return profilers.NewEventStats() },
		stats: func(br *BenchRun, pr cpu.Probe) { br.Events = pr.(*profilers.EventStats) }},
	{name: "stalls",
		probe: func(RunConfig) cpu.Probe { return profilers.NewStallProbe() },
		stats: func(br *BenchRun, pr cpu.Probe) { br.Stalls = pr.(*profilers.StallProbe) }},
}

// techniqueByName returns the registry entry for name, or nil.
func techniqueByName(name string) *technique {
	for i := range techniques {
		if techniques[i].name == name {
			return &techniques[i]
		}
	}
	return nil
}

// ProfileTechniques returns the names of the techniques that produce a
// PICS profile, in evaluation order.
func ProfileTechniques() []string {
	var names []string
	for _, t := range techniques {
		if t.stats == nil {
			names = append(names, t.name)
		}
	}
	return names
}

// selectTechniques resolves names to registry entries in evaluation
// order; an empty list or an unknown name is a typed ErrInvalidConfig.
func selectTechniques(names []string) ([]technique, error) {
	if len(names) == 0 {
		return nil, simerr.New(simerr.ErrInvalidConfig, simerr.Snapshot{}, "no technique requested")
	}
	want := make(map[string]bool, len(names))
	for _, name := range names {
		if techniqueByName(name) == nil {
			return nil, simerr.New(simerr.ErrInvalidConfig, simerr.Snapshot{Technique: name},
				"unknown technique %q", name)
		}
		want[name] = true
	}
	var sel []technique
	for _, t := range techniques {
		if want[t.name] {
			sel = append(sel, t)
		}
	}
	return sel, nil
}

// land materializes each selected technique's result into br once
// attribution is complete (accumulators materialize lazily), skipping
// any technique recorded in br.Errors.
func (br *BenchRun) land(sel []technique, probes []cpu.Probe) {
	br.profiles = make(map[string]*pics.Profile, len(sel))
	for i, t := range sel {
		if _, failed := br.Errors[t.name]; failed {
			continue
		}
		if t.stats != nil {
			t.stats(br, probes[i])
		} else {
			br.profiles[t.name] = probes[i].(profiler).Profile()
		}
	}
	br.Golden, br.TEA, br.NCITEA = br.profiles["golden"], br.profiles["tea"], br.profiles["nci-tea"]
	br.IBS, br.SPE, br.RIS = br.profiles["ibs"], br.profiles["spe"], br.profiles["ris"]
}

// CaptureTrace runs the core exactly once with only the trace-capture
// probe attached and returns the encoded stream — the "simulate once"
// half of the paper's capture/replay methodology. The chaos harness
// mutates the returned bytes; ReplayCaptured consumes them.
func CaptureTrace(ctx context.Context, p *program.Program, rc RunConfig) ([]byte, *cpu.Stats, error) {
	c := cpu.New(rc.Core, p)
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	c.Attach(tw)
	stats, err := c.RunContext(ctx)
	if err != nil {
		return nil, nil, err
	}
	if err := tw.Err(); err != nil {
		return nil, nil, simerr.Wrap(simerr.ErrInternal,
			simerr.Snapshot{Program: p.Name}, err, "in-memory trace capture failed")
	}
	addCodecCounters(tw.Counters())
	return buf.Bytes(), stats, nil
}

// ReplayCaptured replays an encoded trace to the full technique suite,
// decoding the stream once on the calling goroutine. Replay is
// bit-identical to live attachment (the equivalence tests pin it).
//
// Stream-level failures — corruption, truncation, cancellation — abort
// the whole replay with a typed error and no BenchRun. A failure inside
// one technique's probe only voids that technique (BenchRun.Errors);
// the remaining techniques still produce complete profiles.
func ReplayCaptured(ctx context.Context, w workloads.Workload, p *program.Program, rc RunConfig, data []byte) (*BenchRun, error) {
	return replay(ctx, w, p, rc, data, techniques)
}

// replay decodes data once, on the calling goroutine, into the
// selected techniques' probes.
//
// Probe hooks run unguarded, so the per-record path pays nothing for
// containment. The replay recovers its own panic instead; after one,
// each technique replays alone on a fresh probe to find the one that
// failed. Probes are deterministic in (program, config, stream), so the
// survivors' results are a clean run's, and the extra decodes happen
// only on this failure path.
func replay(ctx context.Context, w workloads.Workload, p *program.Program, rc RunConfig, data []byte, sel []technique) (*BenchRun, error) {
	probes := make([]cpu.Probe, len(sel))
	for i, t := range sel {
		probes[i] = t.probe(rc)
	}
	perr, err := replayContained(ctx, data, simerr.Snapshot{Workload: w.Name}, probes...)
	if err != nil {
		return nil, err
	}
	br := &BenchRun{Workload: w, Program: p, Errors: map[string]error{}}
	if perr != nil {
		for i, t := range sel {
			probes[i] = t.probe(rc)
			snap := simerr.Snapshot{Workload: w.Name, Technique: t.name}
			perr, err := replayContained(ctx, data, snap, probes[i])
			if err != nil {
				return nil, err
			}
			if perr != nil {
				br.Errors[t.name] = perr
			}
		}
		// A run that panicked stopped short of the integrity digest.
		// When every technique failed, no run reached it: decode once
		// more with no probe attached, so a corrupt stream still fails
		// the replay instead of surfacing as probe errors.
		if len(br.Errors) == len(sel) {
			perr, err := replayContained(ctx, data, simerr.Snapshot{Workload: w.Name})
			if err != nil {
				return nil, err
			}
			if perr != nil {
				return nil, perr
			}
		}
	}
	br.land(sel, probes)
	return br, nil
}

// replayContained decodes data into probes, converting a panic into a
// typed error carrying snap instead of letting it unwind the
// goroutine.
func replayContained(ctx context.Context, data []byte, snap simerr.Snapshot, probes ...cpu.Probe) (panicErr *simerr.Error, streamErr error) {
	defer func() {
		if v := recover(); v != nil {
			panicErr = simerr.FromPanic(v, snap)
		}
	}()
	_, streamErr = trace.ReplayBytes(ctx, data, probes...)
	return nil, streamErr
}

// RunProgramContext is the panic-free, cancellable entry point: it
// captures the program's trace once — served from the content-addressed
// trace store when any prior run already captured this (program, core)
// pair — and replays it to every technique out-of-band (the paper's
// single-trace methodology, Section 4), honoring ctx in both halves. Every failure mode — runaway programs,
// watchdog-detected deadlock, invalid programs, corrupt streams,
// cancellation — comes back as a typed *simerr.Error; a cancelled or
// failed run returns a nil BenchRun, never a partial profile.
func RunProgramContext(ctx context.Context, w workloads.Workload, p *program.Program, rc RunConfig) (*BenchRun, error) {
	return newCaptureJob(w, p, rc).run(ctx, rc, techniques)
}

// RunTechniquesContext is RunProgramContext for a subset of the
// techniques: it replays the capture to the named probes only, so a
// job that asks for "tea" decodes the trace once, on one goroutine, and
// pays for no other probe. Each profile is byte-identical to the same
// technique's profile from a full RunProgramContext (every technique
// keeps its own seed). Unrequested fields of the BenchRun stay nil; an
// empty list or an unknown name fails with a typed ErrInvalidConfig
// before anything is captured.
func RunTechniquesContext(ctx context.Context, w workloads.Workload, p *program.Program, rc RunConfig, names []string) (*BenchRun, error) {
	sel, err := selectTechniques(names)
	if err != nil {
		return nil, err
	}
	return newCaptureJob(w, p, rc).run(ctx, rc, sel)
}

// run looks up j's capture in the trace store (simulating on a miss)
// and replays it to sel under rc (see replay).
// rc may differ from j.rc only in the sampling knobs, which the capture
// key leaves out.
func (j captureJob) run(ctx context.Context, rc RunConfig, sel []technique) (br *BenchRun, err error) {
	defer func() {
		if err != nil {
			br = nil
		}
	}()
	defer simerr.Recover(&err, simerr.Snapshot{Workload: j.w.Name, Program: j.p.Name})
	data, stats, err := j.capture(ctx)
	if err != nil {
		return nil, err
	}
	br, err = replay(ctx, j.w, j.p, rc, data, sel)
	if err != nil {
		return nil, err
	}
	br.Stats = stats
	return br, nil
}

// RunProgram is RunBenchmark for an explicitly built program (used by
// the case studies, which vary prefetch distance or fast-math). It is
// the crash-loudly convenience wrapper over RunProgramContext for the
// experiment harness, where any failure is a bug in the repo itself:
// it panics with the typed error, including when a single technique
// failed during replay.
//
//tealint:ctxroot crash-loudly harness entry point with no caller context; cancellable callers use RunProgramContext
func RunProgram(w workloads.Workload, p *program.Program, rc RunConfig) *BenchRun {
	br, err := RunProgramContext(context.Background(), w, p, rc)
	if se := runFailure(br, err, w.Name, techniques); se != nil {
		panic(se)
	}
	return br
}

// runFailure is the crash-loudly check of RunProgram and the grid
// runner: the run's own error, else the first failed technique's in
// sel's order, else nil.
func runFailure(br *BenchRun, err error, workload string, sel []technique) *simerr.Error {
	if err != nil {
		return asSimErr(err, workload)
	}
	for _, t := range sel {
		if terr := br.Errors[t.name]; terr != nil {
			return asSimErr(terr, workload)
		}
	}
	return nil
}

// asSimErr surfaces the typed error inside err, wrapping foreign errors
// so boundary recovery always sees a *simerr.Error.
func asSimErr(err error, workload string) *simerr.Error {
	var se *simerr.Error
	if errors.As(err, &se) {
		return se
	}
	return simerr.Wrap(simerr.ErrInternal, simerr.Snapshot{Workload: workload}, err, "run failed")
}

// RunSuite runs the whole benchmark suite on the grid runner, one
// workload per cell: each cell captures its workload (or finds the
// capture in the trace store) and replays it to every technique. Each
// simulation is single-threaded and seeded, so results are identical to
// a serial run — and to a run that hit the cache.
//
//tealint:ctxroot suite entry point invoked by the experiment CLIs, which have no context to thread
func RunSuite(rc RunConfig) []*BenchRun {
	return runGrid(context.Background(), suiteJobs(rc), []RunConfig{rc}, techniques)[0]
}
