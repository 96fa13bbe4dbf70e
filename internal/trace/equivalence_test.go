package trace_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/pics"
	"repro/internal/profilers"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestSuiteReplayEquivalence pins the capture-once/replay-many
// invariant for the whole evaluation pipeline: for every suite
// workload, the profiles produced by replaying the captured trace
// (analysis.RunProgram) are byte-identical — down to the serialized
// JSON, seed fields included — to the profiles produced by attaching
// every technique to the live core (analysis.RunProgramLive). Identical
// bytes mean identical float summation order, not just numerical
// closeness: the parallel replay must be undetectable downstream.
//
// With the content-addressed trace store in the path, "replay" now has
// three flavors, and all must be equally undetectable: a fresh capture
// (store miss), a memory-tier hit, and a disk-tier hit in a later
// process (modeled as a fresh store over the same directory).
func TestSuiteReplayEquivalence(t *testing.T) {
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.05
	rc.Interval = 64
	rc.Jitter = 8
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			iters := int(float64(w.DefaultIters) * rc.Scale)
			if iters < 2 {
				iters = 2
			}
			p := w.Build(iters)

			dir := t.TempDir()
			prev := analysis.SetTraceStore(analysis.NewTraceStore(analysis.DefaultStoreBudget, dir))
			defer analysis.SetTraceStore(prev)

			live := analysis.RunProgramLive(w, p, rc)
			fresh := analysis.RunProgram(w, p, rc) // store miss: captures + persists
			memHit := analysis.RunProgram(w, p, rc)
			analysis.SetTraceStore(analysis.NewTraceStore(analysis.DefaultStoreBudget, dir))
			diskHit := analysis.RunProgram(w, p, rc)

			for _, variant := range []struct {
				kind     string
				replayed *analysis.BenchRun
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
				pairs := []struct {
					name string
					a, b *pics.Profile
				}{
					{"golden", live.Golden, replayed.Golden},
					{"TEA", live.TEA, replayed.TEA},
					{"NCI-TEA", live.NCITEA, replayed.NCITEA},
					{"IBS", live.IBS, replayed.IBS},
					{"SPE", live.SPE, replayed.SPE},
					{"RIS", live.RIS, replayed.RIS},
				}
				for _, pr := range pairs {
					la, err := marshal(pr.a)
					if err != nil {
						t.Fatalf("%s/%s: live marshal: %v", variant.kind, pr.name, err)
					}
					rb, err := marshal(pr.b)
					if err != nil {
						t.Fatalf("%s/%s: replay marshal: %v", variant.kind, pr.name, err)
					}
					if !bytes.Equal(la, rb) {
						t.Errorf("%s/%s: replayed profile JSON differs from live (%d vs %d bytes)",
							variant.kind, pr.name, len(la), len(rb))
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
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.05
	rc.Interval = 64
	rc.Jitter = 8

	prev := analysis.SetTraceStore(analysis.NewTraceStore(analysis.DefaultStoreBudget, ""))
	defer analysis.SetTraceStore(prev)
	runs := analysis.RunSuite(rc)
	for i, w := range workloads.All() {
		iters := int(float64(w.DefaultIters) * rc.Scale)
		if iters < 2 {
			iters = 2
		}
		live := analysis.RunProgramLive(w, w.Build(iters), rc)
		if runs[i].Workload.Name != w.Name || runs[i].Stats.Cycles != live.Stats.Cycles {
			t.Errorf("%s: suite run %s, %d cycles; live %d cycles",
				w.Name, runs[i].Workload.Name, runs[i].Stats.Cycles, live.Stats.Cycles)
		}
		for _, name := range analysis.ProfileTechniques() {
			lb, err := marshal(live.Profile(name))
			if err != nil {
				t.Fatalf("%s/%s: live marshal: %v", w.Name, name, err)
			}
			sb, err := marshal(runs[i].Profile(name))
			if err != nil {
				t.Fatalf("%s/%s: suite marshal: %v", w.Name, name, err)
			}
			if !bytes.Equal(lb, sb) {
				t.Errorf("%s/%s: RunSuite profile JSON differs from live (%d vs %d bytes)",
					w.Name, name, len(sb), len(lb))
			}
		}
	}
}

// TestFrequencySweepSharedCaptureEquivalence pins the suite-scheduler
// half of the dedup tentpole: FrequencySweep captures each workload
// once and replays it per interval, and its results must be exactly —
// float-for-float — what per-interval full re-simulation (live
// attachment, no cache anywhere) produces under the same SweepConfig.
func TestFrequencySweepSharedCaptureEquivalence(t *testing.T) {
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.05
	intervals := []uint64{64, 192}

	prev := analysis.SetTraceStore(analysis.NewTraceStore(analysis.DefaultStoreBudget, ""))
	defer analysis.SetTraceStore(prev)
	start := analysis.CaptureCount()
	pts := analysis.FrequencySweep(rc, intervals)
	if got, want := analysis.CaptureCount()-start, uint64(len(workloads.All())); got != want {
		t.Fatalf("sweep performed %d captures; want %d (one per workload)", got, want)
	}

	for i, iv := range intervals {
		cfg := analysis.SweepConfig(rc, iv)
		var runs []*analysis.BenchRun
		for _, w := range workloads.All() {
			iters := int(float64(w.DefaultIters) * cfg.Scale)
			if iters < 2 {
				iters = 2
			}
			runs = append(runs, analysis.RunProgramLive(w, w.Build(iters), cfg))
		}
		rows := analysis.AccuracyStudy(runs)
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

func marshal(p *pics.Profile) ([]byte, error) {
	var buf bytes.Buffer
	err := p.WriteJSON(&buf)
	return buf.Bytes(), err
}

// codecSuite builds the six profile-producing techniques with the same
// configuration analysis's technique registry uses, either wired to a live core
// (c non-nil) or free-standing for replay delivery (c nil).
func codecSuite(c *cpu.CPU, rc analysis.RunConfig) ([]cpu.Probe, func() map[string]*pics.Profile) {
	golden := core.NewGolden(c)
	teaCfg := core.DefaultConfig()
	teaCfg.IntervalCycles = rc.Interval
	teaCfg.JitterCycles = rc.Jitter
	teaCfg.Seed = rc.Seed
	tea := core.NewTEA(c, teaCfg)
	nci := profilers.NewNCITEA(rc.Interval, rc.Jitter, rc.Seed+1)
	ibs := profilers.NewIBS(rc.Interval, rc.Jitter, rc.Seed+2)
	spe := profilers.NewSPE(rc.Interval, rc.Jitter, rc.Seed+3)
	ris := profilers.NewRIS(rc.Interval, rc.Jitter, rc.Seed+4)
	probes := []cpu.Probe{golden, tea, nci, ibs, spe, ris}
	return probes, func() map[string]*pics.Profile {
		return map[string]*pics.Profile{
			"golden": golden.Profile(), "TEA": tea.Profile(), "NCI-TEA": nci.Profile(),
			"IBS": ibs.Profile(), "SPE": spe.Profile(), "RIS": ris.Profile(),
		}
	}
}

// TestCodecV3V4Equivalence pins the v4 columnar codec against the
// retired v3 record-at-a-time codec (v3codec_test.go) and the live
// core, per suite workload: one simulation captures both encodings
// while a live technique suite profiles it directly, then each stream
// replays into a fresh suite. All three must produce byte-identical
// profile JSON for every technique — the redundancy suppression is
// invisible at the logical level. The suite-wide byte totals must also
// clear the ISSUE 10 acceptance floor: v4 at least 5x smaller than v3.
func TestCodecV3V4Equivalence(t *testing.T) {
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.05
	rc.Interval = 64
	rc.Jitter = 8

	var totalV3, totalV4 int
	for _, w := range workloads.All() {
		w := w
		iters := int(float64(w.DefaultIters) * rc.Scale)
		if iters < 2 {
			iters = 2
		}
		t.Run(w.Name, func(t *testing.T) {
			// One simulation: live suite plus both writers attached.
			c := cpu.New(rc.Core, w.Build(iters))
			liveProbes, liveProfiles := codecSuite(c, rc)
			for _, pr := range liveProbes {
				c.Attach(pr)
			}
			var v4buf bytes.Buffer
			v4w := trace.NewWriter(&v4buf)
			v3w := newV3Writer()
			c.Attach(v4w)
			c.Attach(v3w)
			stats := c.Run()
			if err := v4w.Err(); err != nil {
				t.Fatalf("v4 writer: %v", err)
			}
			totalV3 += len(v3w.Bytes())
			totalV4 += v4buf.Len()

			v4Probes, v4Profiles := codecSuite(nil, rc)
			cycles, err := trace.ReplayBytes(context.Background(), v4buf.Bytes(), v4Probes...)
			if err != nil {
				t.Fatalf("v4 replay: %v", err)
			}
			if cycles != stats.Cycles {
				t.Errorf("v4 replay cycles %d, live %d", cycles, stats.Cycles)
			}
			v3Probes, v3Profiles := codecSuite(nil, rc)
			cycles, err = v3ReplayBytes(v3w.Bytes(), v3Probes...)
			if err != nil {
				t.Fatalf("v3 replay: %v", err)
			}
			if cycles != stats.Cycles {
				t.Errorf("v3 replay cycles %d, live %d", cycles, stats.Cycles)
			}

			live, v3p, v4p := liveProfiles(), v3Profiles(), v4Profiles()
			for name, lp := range live {
				lb, err := marshal(lp)
				if err != nil {
					t.Fatalf("%s: live marshal: %v", name, err)
				}
				b3, err := marshal(v3p[name])
				if err != nil {
					t.Fatalf("%s: v3 marshal: %v", name, err)
				}
				b4, err := marshal(v4p[name])
				if err != nil {
					t.Fatalf("%s: v4 marshal: %v", name, err)
				}
				if !bytes.Equal(lb, b4) {
					t.Errorf("%s: v4-replay profile differs from live (%d vs %d bytes)",
						name, len(b4), len(lb))
				}
				if !bytes.Equal(lb, b3) {
					t.Errorf("%s: v3-replay profile differs from live (%d vs %d bytes)",
						name, len(b3), len(lb))
				}
			}
		})
	}
	if totalV3 == 0 || totalV4 == 0 {
		t.Fatal("no trace bytes captured")
	}
	ratio := float64(totalV3) / float64(totalV4)
	t.Logf("suite trace bytes: v3 %d, v4 %d (%.1fx)", totalV3, totalV4, ratio)
	if ratio < 5 {
		t.Errorf("suite compression ratio %.2fx below the 5x acceptance floor (v3 %d bytes, v4 %d bytes)",
			ratio, totalV3, totalV4)
	}
}
