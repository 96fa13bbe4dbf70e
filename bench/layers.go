package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/pics"
	"repro/internal/profilers"
	"repro/internal/program"
	"repro/internal/simerr"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// probeSpec builds one of the nine replay probes the way
// analysis.ReplayCaptured configures it for rc. Technique probes return
// a profile; the statistics probes do not.
type probeSpec struct {
	metric string // per-layer metric name of its self time
	name   string // technique name, as a job requests it ("" for statistics probes)
	build  func(p *program.Program, rc analysis.RunConfig) cpu.Probe
}

type profiler interface {
	cpu.Probe
	Profile() *pics.Profile
}

var probeSpecs = []probeSpec{
	{"core.golden.ns_per_cycle", "golden", func(p *program.Program, _ analysis.RunConfig) cpu.Probe {
		return core.NewTEA(nil, core.Config{Set: events.TEASet, EveryCycle: true, Prog: p})
	}},
	{"core.tea.ns_per_cycle", "tea", func(p *program.Program, rc analysis.RunConfig) cpu.Probe {
		cfg := core.DefaultConfig()
		cfg.IntervalCycles, cfg.JitterCycles, cfg.Seed, cfg.Prog = rc.Interval, rc.Jitter, rc.Seed, p
		return core.NewTEA(nil, cfg)
	}},
	{"profilers.nci-tea.ns_per_cycle", "nci-tea", func(_ *program.Program, rc analysis.RunConfig) cpu.Probe {
		return profilers.NewNCITEA(rc.Interval, rc.Jitter, rc.Seed+1)
	}},
	{"profilers.ibs.ns_per_cycle", "ibs", func(_ *program.Program, rc analysis.RunConfig) cpu.Probe {
		return profilers.NewIBS(rc.Interval, rc.Jitter, rc.Seed+2)
	}},
	{"profilers.spe.ns_per_cycle", "spe", func(_ *program.Program, rc analysis.RunConfig) cpu.Probe {
		return profilers.NewSPE(rc.Interval, rc.Jitter, rc.Seed+3)
	}},
	{"profilers.ris.ns_per_cycle", "ris", func(_ *program.Program, rc analysis.RunConfig) cpu.Probe {
		return profilers.NewRIS(rc.Interval, rc.Jitter, rc.Seed+4)
	}},
	{"profilers.counters.ns_per_cycle", "", func(*program.Program, analysis.RunConfig) cpu.Probe { return profilers.NewCounters() }},
	{"profilers.events.ns_per_cycle", "", func(*program.Program, analysis.RunConfig) cpu.Probe { return profilers.NewEventStats() }},
	{"profilers.stalls.ns_per_cycle", "", func(*program.Program, analysis.RunConfig) cpu.Probe { return profilers.NewStallProbe() }},
}

// layerTotals accumulates the layer costs over a workload's programs.
type layerTotals struct {
	cycles, records, encoded, renderBytes uint64
	bare, capture, decode                 time.Duration
	replay, replay1p, lookup              time.Duration
	finish, render                        time.Duration
	encodeAlloc                           float64
	profiles, renders                     int
	probe                                 []time.Duration // self time per probeSpecs entry
}

// repeats is how many rounds of single-threaded layer calls a
// program's layer times are taken over.
const repeats = 3

// fastest returns the smaller of best and d, or d in round 0.
func fastest(best time.Duration, round int, d time.Duration) time.Duration {
	if round == 0 || d < best {
		return d
	}
	return best
}

// lookupRepeats is how many store lookups a program's lookup time is
// the mean of.
const lookupRepeats = 3

// measureLayers times each layer by calling its public entry point on
// its own, one call at a time, over the named programs, and reports the
// per-layer metrics of the cpu, trace, analysis, core, profilers and
// pics layers. The programs must already be in the trace store.
func measureLayers(ctx context.Context, names []string, rc analysis.RunConfig, techniques []string, tr *tracer, rep *report) error {
	t := layerTotals{probe: make([]time.Duration, len(probeSpecs))}
	err := tr.timed(0, "bench.layers", "attribution", func(root uint64) error {
		for _, name := range names {
			w, err := workloads.ByName(name)
			if err != nil {
				return err
			}
			if err := measureProgram(ctx, w, rc, techniques, &t, tr, root); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := float64(len(names))
	nsPer := func(d time.Duration, per uint64) float64 { return float64(d.Nanoseconds()) / float64(per) }
	rep.set("cpu.ns_per_cycle", nsPer(t.bare, t.cycles), "ns/cycle")
	rep.set("cpu.cycles", float64(t.cycles), "count")
	rep.set("trace.encode_ns_per_record", nsPer(t.capture-t.bare, t.records), "ns/record")
	rep.set("trace.encode_alloc_mb", t.encodeAlloc/(1<<20), "MB")
	rep.set("trace.decode_ns_per_record", nsPer(t.decode, t.records), "ns/record")
	rep.set("trace.records", float64(t.records), "count")
	rep.set("trace.encoded_bytes", float64(t.encoded), "bytes")
	rep.set("analysis.capture_ms", ms(t.capture)/n, "ms")
	rep.set("analysis.replay_ms", ms(t.replay)/n, "ms")
	rep.set("analysis.replay_1p_ms", ms(t.replay1p)/n, "ms")
	rep.set("analysis.lookup_ms", ms(t.lookup)/n/lookupRepeats, "ms")
	for i, ps := range probeSpecs {
		rep.set(ps.metric, nsPer(t.probe[i], t.cycles), "ns/cycle")
	}
	rep.set("pics.finish_ms", ms(t.finish)/float64(t.profiles), "ms")
	rep.set("pics.render_ms", ms(t.render)/float64(t.renders), "ms")
	rep.set("pics.render_bytes", float64(t.renderBytes), "bytes")
	return nil
}

// measureProgram adds one program's layer costs to t.
func measureProgram(ctx context.Context, w workloads.Workload, rc analysis.RunConfig, techniques []string, t *layerTotals, tr *tracer, root uint64) error {
	p := w.Build(rc.Iters(w))
	var data []byte
	call := func(op string, fn func() error) (time.Duration, error) {
		start := time.Now()
		err := tr.timed(root, op, w.Name, func(uint64) error { return fn() })
		return time.Since(start), err
	}
	decodeOnly := func() error {
		_, err := trace.ReplayBytes(ctx, data)
		return err
	}

	// Rounds of: the bare core (cpu); a capture (trace encode is capture
	// minus the bare core); then replays of the captured trace to no
	// probe (trace decode) around a replay to each probe alone. The
	// absolute times are the fastest of the rounds. A probe's self time
	// is a small difference of two replays, so it is taken within each
	// round against the mean of the decode-only replays around it, and
	// the median over rounds is kept.
	var bare, capture, decode time.Duration
	selfs := make([][]float64, len(probeSpecs))
	probes := make([]cpu.Probe, len(probeSpecs))
	for r := 0; r < repeats; r++ {
		runtime.GC() // leave the previous round's garbage out of this one
		a0 := readRuntime().allocBytes
		var stats *cpu.Stats
		d, err := call("cpu.RunContext", func() (err error) {
			stats, err = cpu.New(rc.Core, p).RunContext(ctx)
			return err
		})
		if err != nil {
			return err
		}
		bare = fastest(bare, r, d)
		bareAlloc := readRuntime().allocBytes - a0

		c0 := analysis.CodecTotalStats()
		a0 = readRuntime().allocBytes
		d, err = call("analysis.CaptureTrace", func() (err error) {
			data, _, err = analysis.CaptureTrace(ctx, p, rc)
			return err
		})
		if err != nil {
			return err
		}
		capture = fastest(capture, r, d)
		if r == 0 {
			t.cycles += stats.Cycles
			t.records += analysis.CodecTotalStats().Records - c0.Records
			t.encoded += uint64(len(data))
			t.encodeAlloc += readRuntime().allocBytes - a0 - bareAlloc
		}

		// The first replay after a capture refills the decoder's pooled
		// state; it is run untimed.
		if err := decodeOnly(); err != nil {
			return err
		}
		before, err := call("trace.ReplayBytes", decodeOnly)
		if err != nil {
			return err
		}
		replays := make([]time.Duration, len(probeSpecs))
		for i, ps := range probeSpecs {
			probes[i] = ps.build(p, rc)
			replays[i], err = call("replay."+strings.TrimSuffix(ps.metric, ".ns_per_cycle"), func() error {
				_, err := trace.ReplayBytes(ctx, data, probes[i])
				return err
			})
			if err != nil {
				return err
			}
		}
		after, err := call("trace.ReplayBytes", decodeOnly)
		if err != nil {
			return err
		}
		decode = fastest(decode, r, min(before, after))
		for i, d := range replays {
			selfs[i] = append(selfs[i], float64(d-(before+after)/2))
		}
	}
	t.bare += bare
	t.capture += capture
	t.decode += decode
	for i := range probeSpecs {
		t.probe[i] += time.Duration(median(selfs[i]))
	}

	// pics: materialize each technique's profile, and render the ones
	// the workload's jobs request.
	for i, ps := range probeSpecs {
		prof, ok := probes[i].(profiler)
		if !ok {
			continue
		}
		var profile *pics.Profile
		d, _ := call("pics.Profile", func() error { profile = prof.Profile(); return nil })
		t.finish += d
		t.profiles++
		if !slices.Contains(techniques, ps.name) {
			continue
		}
		var buf bytes.Buffer
		d, err := call("pics.WriteJSON", func() error { return profile.WriteJSON(&buf) })
		if err != nil {
			return err
		}
		t.render += d
		t.renders++
		t.renderBytes += uint64(buf.Len())
	}

	// analysis: the full nine-probe replay, at GOMAXPROCS and at one proc.
	replay := func() error {
		br, err := analysis.ReplayCaptured(ctx, w, p, rc, data)
		if err == nil && len(br.Errors) > 0 {
			err = fmt.Errorf("replay: technique errors %v", br.Errors)
		}
		return err
	}
	d, err := call("analysis.ReplayCaptured", replay)
	if err != nil {
		return err
	}
	t.replay += d
	prev := runtime.GOMAXPROCS(1)
	d, err = call("analysis.ReplayCaptured.1p", replay)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	t.replay1p += d

	// analysis lookup: RunProgramContext on a store hit, with a context
	// cancelled before the call, so the replay stops at its first
	// cancellation check and what remains is the store lookup, the
	// stats decode and the probes' set-up.
	done, cancel := context.WithCancel(ctx)
	cancel()
	store := analysis.TraceStore()
	for i := 0; i < lookupRepeats; i++ {
		hits := store.Snapshot().Hits
		d, err = call("analysis.RunProgramContext.lookup", func() error {
			_, err := analysis.RunProgramContext(done, w, p, rc)
			if !errors.Is(err, simerr.ErrCanceled) || store.Snapshot().Hits != hits+1 {
				return fmt.Errorf("lookup with a cancelled context: %v, want a store hit then a cancellation", err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		t.lookup += d
	}
	return nil
}
