// Trace replay: capture one execution as a TraceDoctor-style binary
// trace, then profile it offline as many times as you like — the
// capture-once / analyze-many methodology the paper uses to evaluate 15
// configurations from a single FPGA run (Section 4).
package main

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/pics"
	"repro/internal/profilers"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	// 1. Run the core once, with only the trace writer attached.
	w, err := workloads.ByName("bwaves")
	if err != nil {
		fail(err)
	}
	prog := w.Build(2000)
	c := cpu.New(cpu.DefaultConfig(), prog)
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	c.Attach(tw)
	stats := c.Run()
	if tw.Err() != nil {
		fail(tw.Err())
	}
	fmt.Printf("captured %s: %d cycles -> %d trace bytes (%.1f B/cycle, %d records)\n\n",
		w.Name, stats.Cycles, buf.Len(), float64(buf.Len())/float64(stats.Cycles), tw.Counters().Records)

	// 2. Replay the trace into any set of profilers — no re-simulation.
	golden := core.NewGolden(nil)
	teaCfg := core.DefaultConfig()
	teaCfg.IntervalCycles = 256
	teaCfg.JitterCycles = 16
	tea := core.NewTEA(nil, teaCfg)
	ibs := profilers.NewIBS(256, 16, 9)
	if _, err := trace.ReplayBytes(context.Background(), buf.Bytes(), golden, tea, ibs); err != nil {
		fail(err)
	}

	fmt.Println("offline profiles from the trace:")
	for _, prof := range []*pics.Profile{tea.Profile(), ibs.Profile()} {
		fmt.Printf("  %-4s error vs golden: %5.1f%%\n",
			prof.Name, 100*pics.Error(prof, golden.Profile()))
	}

	// 3. Replay again with a different sampling interval — same trace.
	tea2 := core.NewTEA(nil, core.Config{IntervalCycles: 1024, JitterCycles: 64, Seed: 3,
		Set: teaCfg.Set})
	if _, err := trace.ReplayBytes(context.Background(), buf.Bytes(), tea2); err != nil {
		fail(err)
	}
	fmt.Printf("  TEA at 4x sparser sampling: %5.1f%% error\n",
		100*pics.Error(tea2.Profile(), golden.Profile()))
	fmt.Println("\nOne capture, many analyses: techniques sample the exact same cycles,")
	fmt.Println("so accuracy comparisons are apples to apples.")
}

// fail reports a diagnostic error and exits nonzero — examples fail
// loudly, they never crash with a stack trace.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracereplay:", err)
	os.Exit(1)
}
