// Package cpu implements a cycle-level model of the BOOM-like 4-way
// superscalar out-of-order core the paper evaluates on (Table 2): an
// 8-wide front-end with a 48-entry fetch buffer, 4-wide decode/commit,
// a 192-entry ROB, per-class issue queues, a load/store unit with
// store-to-load forwarding and memory-ordering-violation detection, and
// the memory hierarchy and TAGE branch predictor substrates.
//
// The core tracks the nine TEA performance events for every in-flight
// µop in its Performance Signature Vector and exposes a probe interface
// through which the profiling techniques observe fetch, dispatch,
// commit, squash, and the per-cycle commit state — mirroring how the
// paper evaluates all techniques on one TraceDoctor trace.
package cpu

import (
	"fmt"
	"strings"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Config is the core configuration. The defaults follow Table 2.
type Config struct {
	// Front-end.
	FetchWidth      int
	FetchBufEntries int
	DecodeWidth     int
	// FrontEndDepth is the fetch-to-dispatch pipeline depth in cycles.
	FrontEndDepth uint64
	// RedirectPenalty is the front-end refill delay after a pipeline
	// flush or branch-mispredict redirect.
	RedirectPenalty uint64
	// BTBEntries sizes the direct-mapped branch target buffer; taken
	// branches whose target is not cached cost a front-end resteer.
	BTBEntries int
	// BTBMissPenalty is the resteer bubble for a BTB miss on a
	// correctly-predicted taken branch.
	BTBMissPenalty uint64

	// Back-end.
	ROBEntries    int
	CommitWidth   int
	IntIQEntries  int
	IntIssueWidth int
	MemIQEntries  int
	MemIssueWidth int
	FPIQEntries   int
	FPIssueWidth  int
	LQEntries     int
	SQEntries     int

	// Robustness guards (DESIGN.md §7). Zero selects the package
	// defaults; both guards end the run with a typed error
	// (simerr.ErrRunaway / simerr.ErrDeadlock) instead of panicking or
	// looping forever.
	//
	// MaxCycles bounds total simulated cycles (runaway programs).
	MaxCycles uint64
	// WatchdogCommitCycles is the forward-progress watchdog: the run
	// fails if no instruction commits for this many consecutive cycles
	// while the program has not finished.
	WatchdogCommitCycles uint64

	// Functional-unit latencies (cycles from issue to completion).
	ALULatency    uint64
	MulLatency    uint64
	DivLatency    uint64 // unpipelined
	FPLatency     uint64
	FDivLatency   uint64 // unpipelined
	FSqrtLatency  uint64 // unpipelined
	BranchLatency uint64
	// ForwardLatency is the store-to-load forwarding latency.
	ForwardLatency uint64

	// Substrates.
	Mem mem.Config
	BP  branch.Config
}

// DefaultConfig returns the Table 2 baseline: an out-of-order BOOM at
// 3.2 GHz with an 8-wide fetch / 48-entry fetch buffer front-end,
// 4-wide decode and commit, 192-entry ROB, 80-entry 4-issue integer
// queue, 48-entry dual-issue memory and floating-point queues, and a
// 64-entry load/store queue (split 32 load + 32 store).
func DefaultConfig() Config {
	return Config{
		FetchWidth:      8,
		FetchBufEntries: 48,
		DecodeWidth:     4,
		FrontEndDepth:   4,
		RedirectPenalty: 6,
		BTBEntries:      512,
		BTBMissPenalty:  3,

		ROBEntries:    192,
		CommitWidth:   4,
		IntIQEntries:  80,
		IntIssueWidth: 4,
		MemIQEntries:  48,
		MemIssueWidth: 2,
		FPIQEntries:   48,
		FPIssueWidth:  2,

		ALULatency:     1,
		MulLatency:     3,
		DivLatency:     16,
		FPLatency:      4,
		FDivLatency:    18,
		FSqrtLatency:   26,
		BranchLatency:  1,
		ForwardLatency: 2,

		LQEntries: 32,
		SQEntries: 32,

		Mem: mem.DefaultConfig(),
		BP:  branch.DefaultConfig(),
	}
}

// Latency returns the issue-to-complete latency for an opcode.
func (c *Config) Latency(op isa.Op) uint64 {
	switch op {
	case isa.OpMul:
		return c.MulLatency
	case isa.OpDiv, isa.OpRem:
		return c.DivLatency
	case isa.OpFDiv:
		return c.FDivLatency
	case isa.OpFSqrt:
		return c.FSqrtLatency
	}
	switch isa.ClassOf(op) {
	case isa.ClassFP:
		return c.FPLatency
	case isa.ClassBranch:
		return c.BranchLatency
	}
	return c.ALULatency
}

// Describe renders the configuration in the style of Table 2 of the
// paper; cmd/teaexp tab2 prints it.
func (c *Config) Describe() string {
	var b strings.Builder
	row := func(part, text string) {
		fmt.Fprintf(&b, "%-10s %s\n", part, text)
	}
	row("Core", "OoO BOOM-like model @ 3.2 GHz (cycle-level)")
	row("Front-end", fmt.Sprintf("%d-wide fetch, %d-entry fetch buffer, %d-wide decode, TAGE branch predictor (%d tagged tables), %d-cycle redirect",
		c.FetchWidth, c.FetchBufEntries, c.DecodeWidth, len(c.BP.HistoryLengths), c.RedirectPenalty))
	row("Execute", fmt.Sprintf("%d-entry ROB, %d-entry %d-issue integer queue, %d-entry %d-issue memory queue, %d-entry %d-issue floating-point queue, %d-wide commit",
		c.ROBEntries, c.IntIQEntries, c.IntIssueWidth, c.MemIQEntries, c.MemIssueWidth, c.FPIQEntries, c.FPIssueWidth, c.CommitWidth))
	row("LSU", fmt.Sprintf("%d-entry load queue, %d-entry store queue, store-to-load forwarding, ordering-violation replay", c.LQEntries, c.SQEntries))
	row("L1", fmt.Sprintf("%d KB %d-way I-cache, %d KB %d-way D-cache w/ %d MSHRs, next-line I-prefetcher: %v",
		c.Mem.L1I.SizeBytes>>10, c.Mem.L1I.Ways, c.Mem.L1D.SizeBytes>>10, c.Mem.L1D.Ways, c.Mem.L1D.MSHRs, c.Mem.NextLinePrefetch))
	row("LLC", fmt.Sprintf("%d MiB %d-way w/ %d MSHRs", c.Mem.LLC.SizeBytes>>20, c.Mem.LLC.Ways, c.Mem.LLC.MSHRs))
	row("TLB", fmt.Sprintf("%d-entry fully-assoc L1 D-TLB, %d-entry fully-assoc L1 I-TLB, %d-entry direct-mapped L2 TLB, %d-cycle walk",
		c.Mem.DTLB.Entries, c.Mem.ITLB.Entries, c.Mem.Walker.L2.Entries, c.Mem.Walker.WalkLatency))
	row("Memory", fmt.Sprintf("%d-cycle latency, one line per %d cycles (~16 GB/s at 3.2 GHz)",
		c.Mem.DRAM.Latency, c.Mem.DRAM.CyclesPerLine))
	return b.String()
}
