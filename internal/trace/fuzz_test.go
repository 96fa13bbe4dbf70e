package trace

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
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

// FuzzReplay feeds arbitrary bytes to the trace reader: it must reject
// or cleanly error on malformed input — always a typed decode or
// cancellation error, never a panic.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		g := core.NewGolden(nil)
		_, err := ReplayBytes(context.Background(), data, g)
		if err != nil && !errors.Is(err, simerr.ErrDecode) {
			t.Fatalf("replay error is not a typed decode error: %v", err)
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
