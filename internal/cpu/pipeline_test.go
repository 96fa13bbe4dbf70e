package cpu

import (
	"math/rand/v2"
	"testing"

	"repro/internal/emu"
	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/program"
)

func TestCommitWidthBoundsThroughput(t *testing.T) {
	// n independent single-cycle ops cannot commit faster than the
	// commit width allows.
	p := straightALU(2000)
	cpu := New(DefaultConfig(), p)
	stats := cpu.Run()
	minCycles := uint64(2000 / DefaultConfig().CommitWidth)
	if stats.Cycles < minCycles {
		t.Errorf("%d insts committed in %d cycles; commit width %d violated",
			stats.Committed, stats.Cycles, DefaultConfig().CommitWidth)
	}
}

func TestROBCapacityBoundsInFlight(t *testing.T) {
	// A long-latency head op with many independents behind it: the
	// number of in-flight (dispatched, uncommitted) µops must never
	// exceed the ROB size.
	// A warm loop (so fetch keeps pace) whose leading load misses to
	// DRAM every iteration while hundreds of independents pile up.
	b := program.NewBuilder("robcap")
	base := b.Alloc(64<<20, 4096)
	b.Func("main")
	b.MoviU(isa.X(1), base)
	b.Movi(isa.X(11), 0)
	b.Movi(isa.X(12), 20)
	b.Label("top")
	b.Load(isa.X(2), isa.X(1), 0) // DRAM-deep miss at the head
	for i := 0; i < 300; i++ {
		b.Addi(isa.X(3+i%8), isa.X(0), 1)
	}
	b.Addi(isa.X(1), isa.X(1), 1<<20)
	b.Addi(isa.X(11), isa.X(11), 1)
	b.Blt(isa.X(11), isa.X(12), "top")
	b.Halt()
	p := b.MustBuild()
	cpu := New(DefaultConfig(), p)
	probe := &inFlightProbe{}
	cpu.Attach(probe)
	cpu.Run()
	if probe.maxInFlight > DefaultConfig().ROBEntries {
		t.Errorf("max in-flight µops %d exceeds ROB size %d",
			probe.maxInFlight, DefaultConfig().ROBEntries)
	}
	// And the ROB must actually fill behind the stalled load.
	if probe.maxInFlight < DefaultConfig().ROBEntries/2 {
		t.Errorf("ROB only reached %d entries behind a long stall", probe.maxInFlight)
	}
}

type inFlightProbe struct {
	BaseProbe
	dispatched  map[uint64]bool
	inFlight    int
	maxInFlight int
}

func (p *inFlightProbe) OnDispatch(r Ref, cy uint64) {
	if p.dispatched == nil {
		p.dispatched = map[uint64]bool{}
	}
	p.dispatched[r.Seq] = true
	p.inFlight++
	if p.inFlight > p.maxInFlight {
		p.maxInFlight = p.inFlight
	}
}
func (p *inFlightProbe) OnCommit(r Ref, cy uint64) {
	delete(p.dispatched, r.Seq)
	p.inFlight--
}
func (p *inFlightProbe) OnSquash(r Ref, cy uint64) {
	if p.dispatched[r.Seq] {
		delete(p.dispatched, r.Seq)
		p.inFlight--
	}
}

// TestFetchAccessesL1IOncePerLine pins fetch's line tracking to the
// L1I's own geometry: straight-line code accesses the L1I once per
// line, also for lines shorter than 64 bytes.
func TestFetchAccessesL1IOncePerLine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mem.L1I.LineBytes = 32
	cfg.Mem.NextLinePrefetch = false
	p := straightALU(256) // with the halt, 257 instructions: 1,028 bytes
	c := New(cfg, p)
	c.Run()
	const want = 33 // 32-byte lines from the line-aligned CodeBase
	if got := c.Hierarchy().L1I().Accesses; got != want {
		t.Errorf("%d L1I accesses for %d instructions, want %d (one per 32-byte line)", got, len(p.Insts), want)
	}
}

func TestUnpipelinedDividerSerializes(t *testing.T) {
	// Independent divides share one unpipelined unit: n divides take at
	// least n * DivLatency cycles.
	cfg := DefaultConfig()
	b := program.NewBuilder("div")
	b.Func("main")
	b.Movi(isa.X(1), 1000)
	b.Movi(isa.X(2), 3)
	const n = 30
	for i := 0; i < n; i++ {
		b.Div(isa.X(3+i%8), isa.X(1), isa.X(2)) // independent of each other
	}
	b.Halt()
	stats := New(cfg, b.MustBuild()).Run()
	if stats.Cycles < n*cfg.DivLatency {
		t.Errorf("%d independent divides finished in %d cycles; unpipelined unit (lat %d) violated",
			n, stats.Cycles, cfg.DivLatency)
	}
}

func TestPipelinedFPOverlaps(t *testing.T) {
	// Independent FP adds are pipelined: throughput is bounded by the
	// FP issue width, not the FP latency. A warm loop keeps instruction
	// fetch out of the picture.
	cfg := DefaultConfig()
	b := program.NewBuilder("fp")
	b.Func("main")
	b.Movi(isa.X(1), 2)
	b.FMovI(isa.F(1), isa.X(1))
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), 100)
	b.Label("top")
	for i := 0; i < 8; i++ {
		b.FAdd(isa.F(2+i), isa.F(1), isa.F(1))
	}
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "top")
	b.Halt()
	stats := New(cfg, b.MustBuild()).Run()
	// 800 FP adds: unpipelined at FPLatency=4 would exceed 3200 cycles;
	// dual-issue pipelined should land well under half of that.
	if stats.Cycles > 1500 {
		t.Errorf("800 independent FP adds took %d cycles; FP pipeline not overlapping", stats.Cycles)
	}
}

func TestForwardingFasterThanCacheMiss(t *testing.T) {
	// A load forwarding from an in-flight store completes in a couple of
	// cycles; the same load going to a cold cache takes >100.
	mk := func(forward bool) uint64 {
		b := program.NewBuilder("fwd")
		base := b.Alloc(16<<20, 4096)
		b.Func("main")
		b.MoviU(isa.X(1), base)
		b.Movi(isa.X(2), 7)
		if forward {
			b.Store(isa.X(1), isa.X(2), 0)
		}
		b.Load(isa.X(3), isa.X(1), 0)
		b.Add(isa.X(4), isa.X(3), isa.X(3))
		b.Halt()
		return New(DefaultConfig(), b.MustBuild()).Run().Cycles
	}
	withFwd, withoutFwd := mk(true), mk(false)
	if withFwd >= withoutFwd {
		t.Errorf("forwarding run (%d cycles) not faster than cold-miss run (%d)", withFwd, withoutFwd)
	}
}

func TestRedirectPenaltyVisible(t *testing.T) {
	// Compare a predictable loop against the same loop with an
	// unpredictable extra branch: the mispredicting version must pay
	// per-iteration redirect penalties.
	mk := func(unpredictable bool) (uint64, uint64) {
		b := program.NewBuilder("redir")
		b.Func("main")
		b.Movi(isa.X(1), 0)
		b.Movi(isa.X(2), 1000)
		b.Movi(isa.X(4), 88172)
		b.Label("top")
		b.Shli(isa.X(5), isa.X(4), 13)
		b.Xor(isa.X(4), isa.X(4), isa.X(5))
		b.Shri(isa.X(5), isa.X(4), 7)
		b.Xor(isa.X(4), isa.X(4), isa.X(5))
		if unpredictable {
			b.Andi(isa.X(5), isa.X(4), 1)
			b.Beq(isa.X(5), isa.X(0), "skip")
			b.Nop()
			b.Label("skip")
		} else {
			b.Andi(isa.X(5), isa.X(4), 1)
			b.Nop()
		}
		b.Addi(isa.X(1), isa.X(1), 1)
		b.Blt(isa.X(1), isa.X(2), "top")
		b.Halt()
		st := New(DefaultConfig(), b.MustBuild()).Run()
		return st.Cycles, st.Mispredicts
	}
	slowCycles, mispredicts := mk(true)
	fastCycles, _ := mk(false)
	if mispredicts < 300 {
		t.Fatalf("only %d mispredicts", mispredicts)
	}
	perMiss := float64(slowCycles-fastCycles) / float64(mispredicts)
	if perMiss < 3 {
		t.Errorf("mispredict costs %.1f cycles each, redirect penalty invisible", perMiss)
	}
}

func TestWarmTLBNoEvents(t *testing.T) {
	// Repeated loads within one page: only the first sees ST-TLB.
	b := program.NewBuilder("tlb")
	base := b.Alloc(4096, 4096)
	b.Func("main")
	b.MoviU(isa.X(1), base)
	b.Load(isa.X(2), isa.X(1), 0) // cold: TLB miss
	b.Add(isa.X(5), isa.X(1), isa.X(2))
	for i := int64(1); i <= 10; i++ {
		b.Load(isa.X(3), isa.X(5), i*64)
		b.Add(isa.X(5), isa.X(1), isa.X(3))
	}
	b.Halt()
	p := b.MustBuild()
	cpu := New(DefaultConfig(), p)
	col := newCollector(p)
	cpu.Attach(col)
	cpu.Run()
	tlbMisses := 0
	for _, u := range col.committed {
		if u.PSV.Has(events.STTLB) {
			tlbMisses++
		}
	}
	if tlbMisses != 1 {
		t.Errorf("%d ST-TLB events for same-page loads, want exactly 1", tlbMisses)
	}
}

func TestPrefetchWarmsLLCOnly(t *testing.T) {
	// A software prefetch followed (much later) by a load: the load
	// should miss L1 but hit the LLC (ST-L1 without ST-LLC).
	b := program.NewBuilder("pf")
	base := b.Alloc(16<<20, 4096)
	b.Func("main")
	b.MoviU(isa.X(1), base)
	b.Prefetch(isa.X(1), 0)
	// Delay: the load's address depends on a divide chain, so it cannot
	// issue until long after the prefetch completed.
	b.Movi(isa.X(2), 1<<20)
	b.Movi(isa.X(3), 2)
	for i := 0; i < 12; i++ {
		b.Div(isa.X(2), isa.X(2), isa.X(3)) // ends at 256
	}
	b.Addi(isa.X(4), isa.X(2), -256)
	b.Add(isa.X(4), isa.X(1), isa.X(4)) // x4 = base, available late
	b.Load(isa.X(5), isa.X(4), 0)
	b.Add(isa.X(6), isa.X(5), isa.X(5))
	b.Halt()
	p := b.MustBuild()
	cpu := New(DefaultConfig(), p)
	col := newCollector(p)
	cpu.Attach(col)
	cpu.Run()
	var ld Ref
	found := false
	for _, u := range col.committed {
		if isa.IsLoad(col.op(u)) {
			ld = u
			found = true
		}
	}
	if !found {
		t.Fatalf("no load committed")
	}
	if !ld.PSV.Has(events.STL1) {
		t.Errorf("prefetched-line load should still miss L1 (prefetch fills LLC only): %v", ld.PSV)
	}
	if ld.PSV.Has(events.STLLC) {
		t.Errorf("prefetched-line load should hit the LLC: %v", ld.PSV)
	}
}

func TestSerializingWaitsForROBDrain(t *testing.T) {
	// csrflush must not commit before every older µop has committed.
	b := program.NewBuilder("ser")
	b.Func("main")
	b.Movi(isa.X(1), 1000)
	b.Movi(isa.X(2), 3)
	b.Div(isa.X(3), isa.X(1), isa.X(2)) // slow op before the flush
	b.CsrFlush()
	b.Addi(isa.X(4), isa.X(0), 1)
	b.Halt()
	p := b.MustBuild()
	cpu := New(DefaultConfig(), p)
	col := newCollector(p)
	cpu.Attach(col)
	cpu.Run()
	var divCommit, csrCommit, csrDispatch uint64
	for _, u := range col.committed {
		switch col.op(u) {
		case isa.OpDiv:
			divCommit = col.commitAt[u.Seq]
		case isa.OpCsrFlush:
			csrCommit = col.commitAt[u.Seq]
			csrDispatch = col.dispatchAt[u.Seq]
		}
	}
	// The commit stage runs before dispatch within a cycle, so the
	// earliest legal dispatch is the divide's commit cycle itself.
	if csrDispatch < divCommit {
		t.Errorf("csrflush dispatched at %d before the divide committed at %d", csrDispatch, divCommit)
	}
	if csrCommit <= divCommit {
		t.Errorf("csrflush committed at %d, not after the divide at %d", csrCommit, divCommit)
	}
}

func TestL2TLBReducesWalkCost(t *testing.T) {
	// Touch 64 pages (beyond the 32-entry L1 D-TLB), then touch them
	// again: the second pass should hit the L2 TLB, not walk.
	b := program.NewBuilder("l2tlb")
	base := b.Alloc(64*4096+4096, 4096)
	b.Func("main")
	for pass := 0; pass < 2; pass++ {
		b.MoviU(isa.X(1), base)
		b.Movi(isa.X(2), 0)
		b.Movi(isa.X(3), 64)
		b.Label("p" + string(rune('0'+pass)))
		b.Load(isa.X(4), isa.X(1), 0)
		b.Addi(isa.X(1), isa.X(1), 4096)
		b.Addi(isa.X(2), isa.X(2), 1)
		b.Blt(isa.X(2), isa.X(3), "p"+string(rune('0'+pass)))
	}
	b.Halt()
	cpu := New(DefaultConfig(), b.MustBuild())
	cpu.Run()
	walker := cpu.Hierarchy().Walker()
	// First pass: 64 walks (cold L2). Second pass: L2 hits, no walks.
	if walker.Walks > 70 {
		t.Errorf("%d page walks; L2 TLB not retaining translations", walker.Walks)
	}
	if walker.L2().Accesses < 120 {
		t.Errorf("L2 TLB consulted only %d times, want both passes' misses", walker.L2().Accesses)
	}
}

// TestRandomProgramsCommitFunctionalCount is a property test: for
// arbitrary straight-line-plus-forward-branch programs, the timing
// model commits exactly the dynamic instructions the functional
// emulator executes, and every run terminates.
func TestRandomProgramsCommitFunctionalCount(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 17))
		p := randomProgram(rng)
		want := emu.Run(p)
		got := New(DefaultConfig(), p).Run().Committed
		if got != want {
			t.Fatalf("trial %d: committed %d, functional %d\n%s", trial, got, want, p.Disassemble())
		}
	}
}

func randomProgram(rng *rand.Rand) *program.Program {
	b := program.NewBuilder("rand")
	base := b.Alloc(1<<16, 4096)
	b.Func("main")
	b.MoviU(isa.X(1), base)
	n := 20 + rng.IntN(120)
	labels := 0
	for i := 0; i < n; i++ {
		switch rng.IntN(8) {
		case 0:
			b.Addi(isa.X(2+rng.IntN(6)), isa.X(2+rng.IntN(6)), int64(rng.IntN(100)))
		case 1:
			b.Mul(isa.X(2+rng.IntN(6)), isa.X(2+rng.IntN(6)), isa.X(2+rng.IntN(6)))
		case 2:
			b.Load(isa.X(2+rng.IntN(6)), isa.X(1), int64(rng.IntN(8000))&^7)
		case 3:
			b.Store(isa.X(1), isa.X(2+rng.IntN(6)), int64(rng.IntN(8000))&^7)
		case 4:
			// Forward branch: always terminates.
			lbl := labelName(labels)
			labels++
			b.Beq(isa.X(2+rng.IntN(6)), isa.X(2+rng.IntN(6)), lbl)
			b.Addi(isa.X(7), isa.X(7), 1)
			b.Label(lbl)
			b.Nop()
		case 5:
			b.Xor(isa.X(2+rng.IntN(6)), isa.X(2+rng.IntN(6)), isa.X(2+rng.IntN(6)))
		case 6:
			b.Div(isa.X(2+rng.IntN(6)), isa.X(2+rng.IntN(6)), isa.X(2+rng.IntN(6)))
		default:
			b.Nop()
		}
	}
	b.Halt()
	return b.MustBuild()
}

func labelName(i int) string {
	return "L" + string(rune('A'+i%26)) + string(rune('a'+(i/26)%26))
}

func TestEmptyProgramJustHalt(t *testing.T) {
	b := program.NewBuilder("empty")
	b.Func("main")
	b.Halt()
	stats := New(DefaultConfig(), b.MustBuild()).Run()
	if stats.Committed != 1 {
		t.Errorf("committed %d, want 1 (the halt)", stats.Committed)
	}
	if stats.Cycles == 0 || stats.Cycles > 1000 {
		t.Errorf("empty program took %d cycles", stats.Cycles)
	}
}

func TestFetchBufferNeverOverflows(t *testing.T) {
	p := straightALU(3000)
	cpu := New(DefaultConfig(), p)
	probe := &fetchBufProbe{cpu: cpu}
	cpu.Attach(probe)
	cpu.Run()
	if probe.max > DefaultConfig().FetchBufEntries {
		t.Errorf("fetch buffer reached %d entries, cap %d", probe.max, DefaultConfig().FetchBufEntries)
	}
}

type fetchBufProbe struct {
	BaseProbe
	cpu *CPU
	max int
}

func (p *fetchBufProbe) OnCycle(ci *CycleInfo) {
	if n := len(p.cpu.fetchBuf); n > p.max {
		p.max = n
	}
}
