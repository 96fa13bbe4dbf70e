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
// invisible at the logical level — and the v4 replay, re-encoded by a
// fresh writer, must reproduce the capture's bytes and counters. The
// suite-wide byte totals must also clear the ISSUE 10 acceptance
// floor: v4 at least 5x smaller than v3.
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

			// The v4 replay also re-encodes the stream: equal record
			// sequences encode identically, with equal counters.
			v4Probes, v4Profiles := codecSuite(nil, rc)
			var rebuf bytes.Buffer
			rew := trace.NewWriter(&rebuf)
			cycles, err := trace.ReplayBytes(context.Background(), v4buf.Bytes(), append(v4Probes, rew)...)
			if err != nil {
				t.Fatalf("v4 replay: %v", err)
			}
			if cycles != stats.Cycles {
				t.Errorf("v4 replay cycles %d, live %d", cycles, stats.Cycles)
			}
			if !bytes.Equal(rebuf.Bytes(), v4buf.Bytes()) {
				t.Errorf("re-encoded v4 stream differs from the capture (%d vs %d bytes)", rebuf.Len(), v4buf.Len())
			}
			if got, want := rew.Counters(), v4w.Counters(); got != want {
				t.Errorf("re-encoding counters %+v, capture %+v", got, want)
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
