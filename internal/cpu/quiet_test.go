package cpu

import (
	"context"
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/simerr"
	"repro/internal/workloads"
)

// digestProbe folds every hook's arguments into a running digest and
// keeps the digest as of each cycle's OnCycle, so two runs' records
// first differ at the cycle where their hook streams diverge. Every
// overheadEvery'th cycle it requests the sampling-interrupt stall. It
// expands each run it receives into per-cycle calls, counting the runs.
type digestProbe struct {
	c             *CPU
	overheadEvery uint64
	h             uint64
	cycles        []uint64 // digest after OnCycle, indexed by cycle-1
	runs          uint64   // OnCycles calls
}

func (p *digestProbe) mix(v uint64) { p.h = (p.h ^ v) * 0x100000001b3 }

func (p *digestProbe) ref(r Ref) {
	p.mix(r.Seq)
	p.mix(r.PC)
	p.mix(uint64(r.PSV))
}

func (p *digestProbe) hook(id int, r Ref, cycle uint64) {
	p.mix(uint64(id))
	p.ref(r)
	p.mix(cycle)
}

func (p *digestProbe) OnCycle(ci *CycleInfo) {
	p.mix(ci.Cycle)
	p.mix(uint64(ci.State))
	for _, r := range ci.Committed {
		p.ref(r)
	}
	p.ref(ci.Head)
	p.ref(ci.LastCommitted)
	p.cycles = append(p.cycles, p.h)
	if p.overheadEvery > 0 && ci.Cycle%p.overheadEvery == 0 {
		p.c.RequestSampleOverhead()
	}
}

func (p *digestProbe) OnCycles(ci *CycleInfo, n uint64) {
	p.runs++
	EachCycle(ci, n, p.OnCycle)
}

func (p *digestProbe) OnFetch(r Ref, cycle uint64)    { p.hook(1, r, cycle) }
func (p *digestProbe) OnDispatch(r Ref, cycle uint64) { p.hook(2, r, cycle) }
func (p *digestProbe) OnCommit(r Ref, cycle uint64)   { p.hook(3, r, cycle) }
func (p *digestProbe) OnSquash(r Ref, cycle uint64)   { p.hook(4, r, cycle) }
func (p *digestProbe) OnDone(total uint64)            { p.mix(5); p.mix(total) }

// quietRun is one run's observable outcome.
type quietRun struct {
	probe       *digestProbe
	stats       Stats
	err         *simerr.Error
	skipped     uint64 // cycles that ran the commit stage only
	failedQuiet bool   // the guard tripped inside a quiet window
	// MSHR rejections the full-step run saw in the L1D and the LLC.
	l1dFull, llcFull uint64
}

type quietCase struct {
	name          string
	prog          *program.Program
	cfg           func(*Config)
	overhead      uint64 // SampleOverheadCycles
	overheadEvery uint64
	wantErr       error
	// saturates names the cache whose MSHRs the kernel must exhaust.
	saturates string
}

// stepMode is how runQuiet drives the core.
type stepMode int

const (
	quietStep stepMode = iota // Step: quiet cycles run the commit stage only
	fullStep                  // Step with quietUntil reset: all five stages every cycle
	runSteps                  // RunContext: a quiet run advances in one step
)

// runQuiet runs a case in the given mode.
func runQuiet(tc quietCase, mode stepMode) quietRun {
	cfg := DefaultConfig()
	if tc.cfg != nil {
		tc.cfg(&cfg)
	}
	c := New(cfg, tc.prog)
	c.SampleOverheadCycles = tc.overhead
	p := &digestProbe{c: c, overheadEvery: tc.overheadEvery, h: 0xcbf29ce484222325}
	c.Attach(p)
	var r quietRun
	if mode == runSteps {
		_, _ = c.RunContext(context.Background())
	} else {
		for {
			if mode == fullStep {
				c.quietUntil = 0
			}
			if c.cycle+1 < c.quietUntil {
				r.skipped++
			}
			if !c.Step() {
				break
			}
		}
		if c.Failure() == nil {
			c.Finish()
		}
	}
	if r.err = c.Failure(); r.err != nil {
		r.failedQuiet = c.cycle < c.quietUntil
	}
	r.probe, r.stats = p, c.Stats
	r.l1dFull, r.llcFull = c.hier.L1D().MSHRFull, c.hier.LLC().MSHRFull
	return r
}

// TestQuietSkipMatchesFullStep pins the next-event skip: running only
// the commit stage until nextEvent's bound, cycle by cycle or a whole
// quiet run per step (RunContext), delivers exactly the probe calls,
// statistics and guard failures of running every stage every cycle.
// Besides the suite, kernels aim at each wait nextEvent reasons about,
// and each must actually skip cycles and form runs, except that a run
// never forms while sampling interrupts stall the core.
func TestQuietSkipMatchesFullStep(t *testing.T) {
	omnetpp, err := workloads.ByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	stall := quietCycleAfter(omnetpp.Build(60), 3000)
	cases := []quietCase{
		{name: "l1d-mshrs-loads", prog: missLoop(false, 30), saturates: "L1D"},
		{name: "l1d-mshrs-drain", prog: missLoop(true, 30), saturates: "L1D"},
		{name: "l1d-mshrs-translation", prog: pageMissLoop(30), saturates: "L1D"},
		{name: "div-fdiv", prog: divLoop(120)},
		{name: "csrflush", prog: flushLoop(100)},
		// A one-cycle branch resolves the cycle after it issues, which
		// runs every stage; a slower one resolves inside a quiet window.
		{name: "mispredicts", prog: branchyLoop(400), cfg: func(c *Config) { c.BranchLatency = 4 }},
		{name: "prefetch-llc-mshrs", prog: prefetchLoop(30), saturates: "LLC"},
		{name: "sample-overhead", prog: omnetpp.Build(60), overhead: 40, overheadEvery: 97},
		{
			name:    "watchdog-below-dram",
			prog:    omnetpp.Build(60),
			cfg:     func(c *Config) { c.WatchdogCommitCycles = 60 },
			wantErr: simerr.ErrDeadlock,
		},
		{
			name:    "maxcycles-in-stall",
			prog:    omnetpp.Build(60),
			cfg:     func(c *Config) { c.MaxCycles = stall },
			wantErr: simerr.ErrRunaway,
		},
	}
	for _, w := range workloads.All() {
		cases = append(cases, quietCase{name: w.Name, prog: w.Build(max(1, w.DefaultIters/100))})
	}
	var skipped, cycles, runs uint64
	for _, tc := range cases {
		full := runQuiet(tc, fullStep)
		quiet, run := runQuiet(tc, quietStep), runQuiet(tc, runSteps)
		skipped += quiet.skipped
		cycles += quiet.stats.Cycles
		runs += run.probe.runs
		for _, m := range []struct {
			name string
			r    quietRun
		}{{"skip", quiet}, {"runs", run}} {
			if i := firstDiff(m.r.probe.cycles, full.probe.cycles); i >= 0 {
				t.Errorf("%s/%s: probe calls first differ at cycle %d", tc.name, m.name, i+1)
			} else if m.r.probe.h != full.probe.h {
				t.Errorf("%s/%s: probe digests differ after the last cycle", tc.name, m.name)
			}
			if m.r.stats != full.stats {
				t.Errorf("%s: stats differ:\n %s %+v\n full %+v", tc.name, m.name, m.r.stats, full.stats)
			}
			switch q := m.r; {
			case tc.wantErr == nil && (q.err != nil || full.err != nil):
				t.Errorf("%s: failed: %s %v, full %v", tc.name, m.name, q.err, full.err)
			case tc.wantErr != nil && (!errors.Is(q.err, tc.wantErr) || !errors.Is(full.err, tc.wantErr)):
				t.Errorf("%s: errors %v (%s) and %v (full), want %v", tc.name, q.err, m.name, full.err, tc.wantErr)
			case tc.wantErr != nil && (q.err.Error() != full.err.Error() ||
				q.err.Snap.Cycle != full.err.Snap.Cycle || q.err.Snap.Detail != full.err.Snap.Detail):
				t.Errorf("%s: guard failures differ:\n %s %v at %d: %s\n full %v at %d: %s", tc.name,
					m.name, q.err, q.err.Snap.Cycle, q.err.Snap.Detail,
					full.err, full.err.Snap.Cycle, full.err.Snap.Detail)
			case tc.wantErr != nil && !q.failedQuiet:
				t.Errorf("%s/%s: the guard tripped outside a quiet window", tc.name, m.name)
			}
		}
		if quiet.skipped == 0 {
			t.Errorf("%s: no cycle took the quiet path", tc.name)
		}
		if tc.overhead == 0 && run.probe.runs == 0 {
			t.Errorf("%s: RunContext formed no run", tc.name)
		}
		if tc.overhead > 0 && run.probe.runs > 0 {
			t.Errorf("%s: RunContext formed %d runs while sampling interrupts stall the core", tc.name, run.probe.runs)
		}
		if tc.saturates == "L1D" && full.l1dFull == 0 || tc.saturates == "LLC" && full.llcFull == 0 {
			t.Errorf("%s: the %s's MSHRs never filled", tc.name, tc.saturates)
		}
	}
	t.Logf("%d of %d cycles ran the commit stage only; RunContext delivered %d runs", skipped, cycles, runs)
}

// quietCycleAfter returns a cycle budget, from the given cycle on, that
// runs out two cycles into a quiet run which would otherwise go on: a
// MaxCycles of it trips inside a commit stall, and RunContext must cut
// the run at the budget.
func quietCycleAfter(p *program.Program, from uint64) uint64 {
	c := New(DefaultConfig(), p)
	for c.Step() {
		if c.cycle < from || c.cycle+4 >= c.quietUntil {
			continue
		}
		if c.rob.empty() || !c.rob.headUOp().completed || c.rob.headUOp().CompleteCycle > c.cycle+4 {
			return c.cycle + 2
		}
	}
	return from
}

func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// missLoop issues 32 accesses per iteration, each to a fresh line, so
// the L1D's MSHRs stay saturated: by independent loads, or by the
// drain of committed stores (which backs up into DR-SQ).
func missLoop(stores bool, iters int) *program.Program {
	b := program.NewBuilder("missloop")
	base := b.Alloc(uint64(iters+1)*32*64, 4096)
	b.Func("main")
	b.MoviU(isa.X(1), base)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), int64(iters))
	b.Label("top")
	for i := int64(0); i < 32; i++ {
		if stores {
			b.Store(isa.X(1), isa.X(2), i*64)
		} else {
			b.Load(isa.X(4+int(i%8)), isa.X(1), i*64)
		}
	}
	b.Addi(isa.X(1), isa.X(1), 32*64)
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "top")
	b.Halt()
	return b.MustBuild()
}

// pageMissLoop issues 32 loads per iteration, each to a fresh page and
// line, so translations (page walks) complete while the earlier loads'
// misses hold every L1D MSHR.
func pageMissLoop(iters int) *program.Program {
	const stride = 4096 + 64 // a new page, and a new L1D set
	b := program.NewBuilder("pagemissloop")
	base := b.Alloc(uint64(iters+1)*32*stride, 4096)
	b.Func("main")
	b.MoviU(isa.X(1), base)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), int64(iters))
	b.Label("top")
	for i := int64(0); i < 32; i++ {
		b.Load(isa.X(4+int(i%8)), isa.X(1), i*stride)
	}
	b.Addi(isa.X(1), isa.X(1), 32*stride)
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "top")
	b.Halt()
	return b.MustBuild()
}

// headMiss emits a load that misses to DRAM, a page further on each
// time, so it holds the ROB head while younger µops complete without
// committing. x10 walks a buffer with a page per iteration.
func headMiss(b *program.Builder) {
	b.Load(isa.X(11), isa.X(10), 0)
	b.Addi(isa.X(10), isa.X(10), 4096)
}

// divLoop keeps both unpipelined dividers busy with back-to-back
// independent divides behind a DRAM miss, so the dividers' busy-until
// is the only timer a waiting divide has.
func divLoop(iters int) *program.Program {
	b := program.NewBuilder("divloop")
	buf := b.Alloc(uint64(iters+1)<<12, 4096)
	b.Func("main")
	b.MoviU(isa.X(10), buf)
	b.Movi(isa.X(1), 1000003)
	b.Movi(isa.X(2), 7)
	b.FMovI(isa.F(1), isa.X(1))
	b.FMovI(isa.F(2), isa.X(2))
	b.Movi(isa.X(3), 0)
	b.Movi(isa.X(4), int64(iters))
	b.Label("top")
	headMiss(b)
	for i := 0; i < 4; i++ {
		b.Div(isa.X(5+i), isa.X(1), isa.X(2))
		b.FDiv(isa.F(3+i), isa.F(1), isa.F(2))
	}
	b.FSqrt(isa.F(7), isa.F(1))
	b.Addi(isa.X(3), isa.X(3), 1)
	b.Blt(isa.X(3), isa.X(4), "top")
	b.Halt()
	return b.MustBuild()
}

// flushLoop serializes on a CSR access every iteration.
func flushLoop(iters int) *program.Program {
	b := program.NewBuilder("flushloop")
	b.Func("main")
	b.Movi(isa.X(1), 0)
	b.Movi(isa.X(2), int64(iters))
	b.Label("top")
	b.Addi(isa.X(3), isa.X(3), 5)
	b.CsrFlush()
	b.Mul(isa.X(4), isa.X(3), isa.X(3))
	b.Addi(isa.X(1), isa.X(1), 1)
	b.Blt(isa.X(1), isa.X(2), "top")
	b.Halt()
	return b.MustBuild()
}

// branchyLoop branches on a bit of a linear congruential sequence, so
// about half its conditional branches mispredict, and they resolve
// while an older DRAM miss holds the ROB head.
func branchyLoop(iters int) *program.Program {
	b := program.NewBuilder("branchy")
	buf := b.Alloc(uint64(iters+1)<<12, 4096)
	b.Func("main")
	b.MoviU(isa.X(10), buf)
	b.Movi(isa.X(1), 0)
	b.Movi(isa.X(2), int64(iters))
	b.Movi(isa.X(3), 12345)
	b.Movi(isa.X(4), 6364136223846793005)
	b.Label("top")
	headMiss(b)
	b.Mul(isa.X(3), isa.X(3), isa.X(4))
	b.Addi(isa.X(3), isa.X(3), 1442695040888963407)
	b.Shri(isa.X(5), isa.X(3), 33)
	b.Andi(isa.X(5), isa.X(5), 1)
	b.Beq(isa.X(5), isa.X(0), "skip")
	b.Addi(isa.X(6), isa.X(6), 1)
	b.Label("skip")
	b.Addi(isa.X(1), isa.X(1), 1)
	b.Blt(isa.X(1), isa.X(2), "top")
	b.Halt()
	return b.MustBuild()
}

// prefetchLoop issues 24 software prefetches per iteration to lines a
// page apart, more than the LLC has MSHRs, so prefetches wait on them.
func prefetchLoop(iters int) *program.Program {
	b := program.NewBuilder("prefetchloop")
	base := b.Alloc(uint64(iters+1)*24*4096, 4096)
	b.Func("main")
	b.MoviU(isa.X(1), base)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), int64(iters))
	b.Label("top")
	for i := int64(0); i < 24; i++ {
		b.Prefetch(isa.X(1), i*4096)
	}
	b.Addi(isa.X(1), isa.X(1), 24*4096)
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "top")
	b.Halt()
	return b.MustBuild()
}
