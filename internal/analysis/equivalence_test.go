package analysis

import (
	"bytes"
	"testing"

	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/workloads"
)

// runLive attaches every registry technique's probe directly to the
// core — the pre-capture evaluation path. Replay must produce profiles
// byte-identical to this one; the tests below pin that invariant
// across the whole suite.
func runLive(w workloads.Workload, p *program.Program, rc RunConfig) *BenchRun {
	c := cpu.New(rc.Core, p)
	br := &BenchRun{Workload: w, Program: p, Errors: map[string]error{}}
	probes := make([]cpu.Probe, len(techniques))
	for i, t := range techniques {
		probes[i] = t.probe(rc)
		c.Attach(probes[i])
	}
	br.Stats = c.Run()
	br.land(techniques, probes)
	return br
}

// equivalenceConfig is the scaled-down, densely sampled configuration
// the equivalence tests compare live and replayed runs under.
func equivalenceConfig() RunConfig {
	rc := DefaultRunConfig()
	rc.Scale = 0.05
	rc.Interval = 64
	rc.Jitter = 8
	return rc
}

// TestSuiteReplayEquivalence pins the capture-once/replay-many
// invariant for the whole evaluation pipeline: for every suite
// workload, the profiles produced by replaying the captured trace
// (RunProgram) are byte-identical — down to the serialized JSON, seed
// fields included — to the profiles produced by attaching every
// technique to the live core (runLive). Identical bytes mean identical
// float summation order, not just numerical closeness: the parallel
// replay must be undetectable downstream.
//
// With the content-addressed trace store in the path, "replay" has
// three flavors, and all must be equally undetectable: a fresh capture
// (store miss), a memory-tier hit, and a disk-tier hit in a later
// process (modeled as a fresh store over the same directory).
func TestSuiteReplayEquivalence(t *testing.T) {
	rc := equivalenceConfig()
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build(rc.iters(w))

			dir := t.TempDir()
			prev := SetTraceStore(NewTraceStore(DefaultStoreBudget, dir))
			defer SetTraceStore(prev)

			live := runLive(w, p, rc)
			fresh := RunProgram(w, p, rc) // store miss: captures + persists
			memHit := RunProgram(w, p, rc)
			SetTraceStore(NewTraceStore(DefaultStoreBudget, dir))
			diskHit := RunProgram(w, p, rc)

			for _, variant := range []struct {
				kind     string
				replayed *BenchRun
			}{
				{"fresh-capture", fresh},
				{"memory-cache-hit", memHit},
				{"disk-cache-hit", diskHit},
			} {
				replayed := variant.replayed
				if live.Stats.Cycles != replayed.Stats.Cycles {
					t.Errorf("%s: cycle counts differ: live %d, replay %d",
						variant.kind, live.Stats.Cycles, replayed.Stats.Cycles)
				}
				for _, name := range ProfileTechniques() {
					lb, rb := renderJSON(t, live.Profile(name)), renderJSON(t, replayed.Profile(name))
					if !bytes.Equal(lb, rb) {
						t.Errorf("%s/%s: replayed profile JSON differs from live (%d vs %d bytes)",
							variant.kind, name, len(lb), len(rb))
					}
				}
				if live.Events.Total != replayed.Events.Total ||
					live.Events.WithEvent != replayed.Events.WithEvent ||
					live.Events.Combined != replayed.Events.Combined {
					t.Errorf("%s: event stats differ: live %+v, replay %+v",
						variant.kind, *live.Events, *replayed.Events)
				}
			}
		})
	}
}

// TestRunSuiteReplayEquivalence pins the grid path: RunSuite replays
// each workload on one goroutine from the scheduler's shared captures,
// and every profile it produces must render byte-identically to live
// attachment.
func TestRunSuiteReplayEquivalence(t *testing.T) {
	rc := equivalenceConfig()
	prev := SetTraceStore(NewTraceStore(DefaultStoreBudget, ""))
	defer SetTraceStore(prev)
	runs := RunSuite(rc)
	for i, w := range workloads.All() {
		live := runLive(w, w.Build(rc.iters(w)), rc)
		if runs[i].Workload.Name != w.Name || runs[i].Stats.Cycles != live.Stats.Cycles {
			t.Errorf("%s: suite run %s, %d cycles; live %d cycles",
				w.Name, runs[i].Workload.Name, runs[i].Stats.Cycles, live.Stats.Cycles)
		}
		for _, name := range ProfileTechniques() {
			lb, sb := renderJSON(t, live.Profile(name)), renderJSON(t, runs[i].Profile(name))
			if !bytes.Equal(lb, sb) {
				t.Errorf("%s/%s: RunSuite profile JSON differs from live (%d vs %d bytes)",
					w.Name, name, len(sb), len(lb))
			}
		}
	}
}

// TestFrequencySweepSharedCaptureEquivalence pins the suite-scheduler
// half of capture deduplication: FrequencySweep captures each workload
// once and replays it per interval, and its results must be exactly —
// float-for-float — what per-interval full re-simulation (live
// attachment, no cache anywhere) produces under the same SweepConfig.
func TestFrequencySweepSharedCaptureEquivalence(t *testing.T) {
	rc := DefaultRunConfig()
	rc.Scale = 0.05
	intervals := []uint64{64, 192}

	prev := SetTraceStore(NewTraceStore(DefaultStoreBudget, ""))
	defer SetTraceStore(prev)
	start := CaptureCount()
	pts := FrequencySweep(rc, intervals)
	if got, want := CaptureCount()-start, uint64(len(workloads.All())); got != want {
		t.Fatalf("sweep performed %d captures; want %d (one per workload)", got, want)
	}

	for i, iv := range intervals {
		cfg := SweepConfig(rc, iv)
		var runs []*BenchRun
		for _, w := range workloads.All() {
			runs = append(runs, runLive(w, w.Build(cfg.iters(w)), cfg))
		}
		rows := AccuracyStudy(runs)
		want := rows[len(rows)-1].Errors
		got := pts[i].Average
		if len(got) != len(want) {
			t.Fatalf("interval %d: %d techniques from sweep, %d from re-simulation", iv, len(got), len(want))
		}
		for tech, wv := range want {
			if gv, ok := got[tech]; !ok || gv != wv {
				t.Errorf("interval %d, %s: shared-capture sweep %v, per-interval re-simulation %v",
					iv, tech, gv, wv)
			}
		}
	}
}
