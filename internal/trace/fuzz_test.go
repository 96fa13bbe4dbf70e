package trace

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/profilers"
	"repro/internal/simerr"
	"repro/internal/workloads"
)

// fuzzCapture records one real workload run — the corpus mutations
// start from a stream with genuine squashes, stalls, and flushes, not
// a synthetic minimum.
func fuzzCapture(f *testing.F) []byte {
	f.Helper()
	w, err := workloads.ByName("bwaves")
	if err != nil {
		f.Fatal(err)
	}
	c := cpu.New(cpu.DefaultConfig(), w.Build(2))
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	c.Attach(tw)
	c.Run()
	return buf.Bytes()
}

// perCycle hides its probe's run hook and hook set, so replay delivers
// every hook to it, and every cycle one OnCycle call at a time.
type perCycle struct{ p cpu.Probe }

func (w perCycle) OnCycle(ci *cpu.CycleInfo)          { w.p.OnCycle(ci) }
func (w perCycle) OnFetch(r cpu.Ref, cycle uint64)    { w.p.OnFetch(r, cycle) }
func (w perCycle) OnDispatch(r cpu.Ref, cycle uint64) { w.p.OnDispatch(r, cycle) }
func (w perCycle) OnCommit(r cpu.Ref, cycle uint64)   { w.p.OnCommit(r, cycle) }
func (w perCycle) OnSquash(r cpu.Ref, cycle uint64)   { w.p.OnSquash(r, cycle) }
func (w perCycle) OnDone(total uint64)                { w.p.OnDone(total) }

// FuzzReplay feeds arbitrary bytes to the trace reader: it must reject
// or cleanly error on malformed input — always a typed decode or
// cancellation error, never a panic. The replay goes to probes on each
// delivery path: golden, a sampled TEA, IBS and the stall probe take
// runs and receive only their hooks, and a twin golden and TEA take
// every hook one cycle at a time. A replay that succeeds must leave
// each twin with the profile and sample count of its run-path probe.
func FuzzReplay(f *testing.F) {
	valid := fuzzCapture(f)
	f.Add(valid)

	// Truncations at every structural boundary (block starts, token
	// spans, column starts; sampled down to keep the corpus manageable)
	// — the exact cuts a dying writer produces.
	offsets, err := RecordOffsets(valid)
	if err != nil {
		f.Fatal(err)
	}
	const maxCuts = 64
	stride := 1
	if len(offsets) > maxCuts {
		stride = len(offsets) / maxCuts
	}
	for i := 0; i < len(offsets); i += stride {
		f.Add(valid[:offsets[i]])
	}

	// Single-bit flips spread across the stream, header included.
	for i := 0; i < 64; i++ {
		pos := (i*2654435761 + 17) % len(valid)
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 1 << uint(i%8)
		f.Add(mut)
	}

	// Targeted pattern-table and column-boundary seeds: bit-flips and
	// byte tweaks inside each block's token span and each column's
	// length prefix, the regions where v4 framing desynchronizes.
	if lay, err := ParseLayout(valid); err == nil && len(lay.Blocks) > 0 {
		b := lay.Blocks[0]
		targets := []int{b.TokenSpan.LenStart, b.TokenSpan.Start,
			(b.TokenSpan.Start + b.TokenSpan.End) / 2}
		for _, c := range b.Columns {
			targets = append(targets, c.LenStart, c.Start)
		}
		for _, pos := range targets {
			if pos >= len(valid) {
				continue
			}
			mut := append([]byte(nil), valid...)
			mut[pos] ^= 0x55
			f.Add(mut)
			mut2 := append([]byte(nil), valid...)
			mut2[pos] = 0xFF
			f.Add(mut2)
		}
	}

	// Hand-written degenerate streams: the v4 header alone, a block
	// claiming records with no columns, a match token with no prior
	// records, a giant record count, and the old v3 header (must be
	// rejected as unsupported).
	f.Add(valid[:min(len(valid), 4096)])
	f.Add([]byte("TEAT\x04"))
	f.Add([]byte("TEAT\x04\x10\x01\x01\x00"))
	f.Add([]byte("TEAT\x04\x10\x01\x01\x02\x03\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("TEAT\x04\x10\xff\xff\xff\xff\x0f\x01\x00"))
	f.Add([]byte("TEAT\x04\x06\x00\x00"))
	f.Add([]byte("TEAT\x03"))
	f.Add([]byte("TEAT\x03\x05\x01\x00"))
	f.Add([]byte{})

	teaCfg := core.DefaultConfig()
	teaCfg.IntervalCycles, teaCfg.JitterCycles = 64, 8
	f.Fuzz(func(t *testing.T, data []byte) {
		g, g1 := core.NewGolden(nil), core.NewGolden(nil)
		tea, tea1 := core.NewTEA(nil, teaCfg), core.NewTEA(nil, teaCfg)
		_, err := ReplayBytes(context.Background(), data, g, tea,
			profilers.NewIBS(64, 8, 2), profilers.NewStallProbe(), perCycle{g1}, perCycle{tea1})
		if err != nil {
			if !errors.Is(err, simerr.ErrDecode) {
				t.Fatalf("replay error is not a typed decode error: %v", err)
			}
			return
		}
		for _, twin := range [][2]*core.TEA{{g, g1}, {tea, tea1}} {
			var a, b bytes.Buffer
			if err := twin[0].Profile().WriteJSON(&a); err != nil {
				t.Fatal(err)
			}
			if err := twin[1].Profile().WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) || twin[0].SampleCnt != twin[1].SampleCnt {
				t.Fatalf("run delivery and per-cycle delivery disagree: %d vs %d samples",
					twin[0].SampleCnt, twin[1].SampleCnt)
			}
		}
	})
}
