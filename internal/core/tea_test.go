package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/pics"
	"repro/internal/program"
	"repro/internal/simerr"
)

func TestSamplerFiresAtInterval(t *testing.T) {
	s := NewSeededSampler(100, 0, 1)
	fired := []uint64{}
	for c := uint64(1); c <= 1000; c++ {
		if s.Fires(c) {
			fired = append(fired, c)
		}
	}
	if len(fired) != 10 {
		t.Fatalf("fired %d times in 1000 cycles at interval 100, want 10", len(fired))
	}
	for i, c := range fired {
		if c != uint64((i+1)*100) {
			t.Errorf("fire %d at cycle %d, want %d", i, c, (i+1)*100)
		}
	}
}

func TestSamplerJitterStaysNearInterval(t *testing.T) {
	s := NewSeededSampler(1000, 100, 7)
	prev := uint64(0)
	count := 0
	for c := uint64(1); c <= 200_000; c++ {
		if s.Fires(c) {
			if prev != 0 {
				gap := c - prev
				if gap < 800 || gap > 1250 {
					t.Fatalf("jittered gap %d outside [800,1250]", gap)
				}
			}
			prev = c
			count++
		}
	}
	if count < 180 || count > 220 {
		t.Errorf("fired %d times in 200k cycles at interval 1000, want ~200", count)
	}
}

func TestSamplerSkippedCyclesCatchUp(t *testing.T) {
	// If Fires is consulted sparsely (cycle jumps), the next fire must
	// not be in the past.
	s := NewSeededSampler(10, 0, 1)
	if !s.Fires(100) {
		t.Fatalf("overdue sampler should fire")
	}
	if s.Fires(100) {
		t.Fatalf("sampler fired twice in the same cycle")
	}
	if s.Fires(101) {
		t.Fatalf("sampler should not fire before the next interval")
	}
	if !s.Fires(110) {
		t.Fatalf("sampler should fire one interval after the catch-up")
	}
}

func TestSamplerZeroIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewSeededSampler(0, 0, 1)
}

// TestSamplerJitterAboveIntervalPanics pins the jitter bound: a jitter
// above the interval panics typed, and one equal to it keeps firing
// (the clock never wraps below zero).
func TestSamplerJitterAboveIntervalPanics(t *testing.T) {
	func() {
		defer func() {
			if err, ok := recover().(error); !ok || !errors.Is(err, simerr.ErrInvalidConfig) {
				t.Fatalf("NewSeededSampler(10, 100, 2): recovered %v, want a typed ErrInvalidConfig", err)
			}
		}()
		NewSeededSampler(10, 100, 2)
	}()
	for seed := uint64(0); seed < 50; seed++ {
		s := NewSeededSampler(10, 10, seed)
		fired := 0
		for c := uint64(0); c < 10000; c++ {
			if s.Fires(c) {
				fired++
			}
		}
		if fired < 900 {
			t.Fatalf("seed %d: jitter equal to the interval fired %d times in 10000 cycles, want ~1000", seed, fired)
		}
	}
}

// runWith builds a core for p, attaches golden + a TEA configured with
// interval, runs, and returns both profiles.
func runWith(t *testing.T, p *program.Program, interval uint64) (tea, golden *pics.Profile, teaUnit *TEA) {
	t.Helper()
	c := cpu.New(cpu.DefaultConfig(), p)
	g := NewGolden(c)
	cfg := DefaultConfig()
	cfg.IntervalCycles = interval
	cfg.JitterCycles = interval / 16
	teaU := NewTEA(c, cfg)
	c.Attach(g)
	c.Attach(teaU)
	c.Run()
	return teaU.Profile(), g.Profile(), teaU
}

func memLoop(n int64) *program.Program {
	b := program.NewBuilder("memloop")
	base := b.Alloc(8<<20, 64)
	b.Func("main")
	b.MoviU(isa.X(1), base)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), n)
	b.Label("top")
	b.Load(isa.X(4), isa.X(1), 0)
	b.Add(isa.X(5), isa.X(4), isa.X(2))
	b.Addi(isa.X(1), isa.X(1), 4096) // new page and line every iteration
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "top")
	b.Halt()
	return b.MustBuild()
}

func TestGoldenTotalMatchesCycles(t *testing.T) {
	p := memLoop(300)
	c := cpu.New(cpu.DefaultConfig(), p)
	g := NewGolden(c)
	c.Attach(g)
	stats := c.Run()
	got := g.Profile().Total()
	// Every cycle is attributed except trailing Drained/Flushed cycles
	// with no subsequent commit (end of program) — a tiny fraction.
	if got > float64(stats.Cycles) || got < 0.95*float64(stats.Cycles) {
		t.Errorf("golden attributed %v of %d cycles", got, stats.Cycles)
	}
}

func TestGoldenSeesLoadStallEvents(t *testing.T) {
	p := memLoop(300)
	c := cpu.New(cpu.DefaultConfig(), p)
	g := NewGolden(c)
	c.Attach(g)
	c.Run()
	app := g.Profile().Application()
	var stallCycles float64
	for sig, v := range app {
		if sig.Has(events.STL1) || sig.Has(events.STLLC) || sig.Has(events.STTLB) {
			stallCycles += v
		}
	}
	if stallCycles < 0.3*g.Profile().Total() {
		t.Errorf("memory-bound loop shows only %v of %v cycles on memory events",
			stallCycles, g.Profile().Total())
	}
}

func TestTEACloseToGolden(t *testing.T) {
	p := memLoop(4000)
	tea, golden, _ := runWith(t, p, 512)
	e := pics.Error(tea, golden)
	if e > 0.15 {
		t.Errorf("TEA error vs golden = %v, want small (paper: 2.1%% average)", e)
	}
}

func TestTEASampleCountMatchesInterval(t *testing.T) {
	p := memLoop(2000)
	c := cpu.New(cpu.DefaultConfig(), p)
	cfg := DefaultConfig()
	cfg.IntervalCycles = 1000
	cfg.JitterCycles = 50
	tea := NewTEA(c, cfg)
	c.Attach(tea)
	stats := c.Run()
	want := float64(stats.Cycles) / 1000
	got := float64(tea.SampleCnt)
	if math.Abs(got-want) > 0.15*want+2 {
		t.Errorf("TEA took %v samples over %d cycles at interval 1000, want ~%v",
			got, stats.Cycles, want)
	}
}

func TestBuildProfileMatchesOnline(t *testing.T) {
	p := memLoop(1500)
	tea, _, unit := runWith(t, p, 700)
	rebuilt := BuildProfile("TEA", events.TEASet, unit.Samples())
	if e := pics.Error(rebuilt, tea); e > 1e-9 {
		t.Errorf("offline PICS generation differs from online: error=%v", e)
	}
	if math.Abs(rebuilt.Total()-tea.Total()) > 1e-6 {
		t.Errorf("totals differ: %v vs %v", rebuilt.Total(), tea.Total())
	}
}

func TestTIPHasOnlyBaseComponent(t *testing.T) {
	p := memLoop(500)
	c := cpu.New(cpu.DefaultConfig(), p)
	cfg := DefaultConfig()
	cfg.IntervalCycles = 300
	cfg.JitterCycles = 300 / 16
	cfg.Set = 0 // TIP: time-proportional addresses, no events
	tip := NewTEA(c, cfg)
	c.Attach(tip)
	c.Run()
	if tip.Profile().Name != "TIP" {
		t.Errorf("empty-set TEA should be named TIP, got %q", tip.Profile().Name)
	}
	for pc, st := range tip.Profile().Insts {
		for sig := range st {
			if sig != 0 {
				t.Fatalf("TIP profile has non-Base signature %v at %#x", sig, pc)
			}
		}
	}
}

func TestFlushedSamplesGoToLastCommitted(t *testing.T) {
	// Serializing flushes: Flushed-state cycles must be attributed to
	// the csrflush (FL-EX), not to the next instruction.
	b := program.NewBuilder("flush")
	b.Func("main")
	b.Movi(isa.X(1), 9)
	b.FMovI(isa.F(1), isa.X(1))
	b.Movi(isa.X(9), 0)
	b.Movi(isa.X(10), 200)
	b.Label("top")
	b.CsrFlush()
	b.FSqrt(isa.F(2), isa.F(1))
	b.Addi(isa.X(9), isa.X(9), 1)
	b.Blt(isa.X(9), isa.X(10), "top")
	b.Halt()
	p := b.MustBuild()
	c := cpu.New(cpu.DefaultConfig(), p)
	g := NewGolden(c)
	c.Attach(g)
	c.Run()
	app := g.Profile().Application()
	flexCycles := 0.0
	for sig, v := range app {
		if sig.Has(events.FLEX) {
			flexCycles += v
		}
	}
	if flexCycles == 0 {
		t.Fatalf("no cycles attributed to FL-EX signatures")
	}
}

func TestOverheadStorageBreakdown(t *testing.T) {
	o := NewOverhead(cpu.DefaultConfig())
	// Section 3: fetch buffer 12 B, ROB 216 B; total ~249 B.
	if o.FetchBufferBits != 96 {
		t.Errorf("fetch buffer bits = %d, want 96 (12 B)", o.FetchBufferBits)
	}
	if o.ROBBits != 1728 {
		t.Errorf("ROB bits = %d, want 1728 (216 B)", o.ROBBits)
	}
	if b := o.TotalBytes(); b < 235 || b > 255 {
		t.Errorf("TEA storage = %d B, paper reports 249 B", b)
	}
	if b := o.WithTIPBytes(); b < 290 || b > 310 {
		t.Errorf("TEA+TIP storage = %d B, paper reports 306 B", b)
	}
}

func TestOverheadPowerTiny(t *testing.T) {
	o := NewOverhead(cpu.DefaultConfig())
	mw := o.PowerMilliwatts()
	if mw < 2.5 || mw > 3.5 {
		t.Errorf("power = %v mW, paper reports ~3.2 mW", mw)
	}
	if f := o.PowerFractionOfCore(); f > 0.002 {
		t.Errorf("power fraction = %v, paper reports ~0.1%%", f)
	}
}

func TestCSRPackingFits(t *testing.T) {
	cfg := cpu.DefaultConfig()
	bits := CSRBits(cfg.CommitWidth)
	if bits != 46 {
		t.Errorf("CSR occupancy = %d bits, paper reports 46", bits)
	}
	if bits > 64 {
		t.Errorf("sample metadata exceeds the 64-bit CSR")
	}
	if SampleBytes != 88 {
		t.Errorf("sample size = %d, paper retains TIP's 88 B", SampleBytes)
	}
}

func TestOverheadDescribe(t *testing.T) {
	o := NewOverhead(cpu.DefaultConfig())
	text := o.Describe()
	for _, want := range []string{"ROB PSV", "TEA total", "mW"} {
		found := false
		for i := 0; i+len(want) <= len(text); i++ {
			if text[i:i+len(want)] == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Describe missing %q", want)
		}
	}
}
