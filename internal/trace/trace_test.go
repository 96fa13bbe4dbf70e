package trace

import (
	"bytes"
	"context"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/pics"
	"repro/internal/profilers"
	"repro/internal/program"
)

// testProgram is a kernel with cache misses, mispredicts, and flushes —
// exercising every record kind.
func testProgram() *program.Program {
	b := program.NewBuilder("tracetest")
	arr := b.Alloc(4<<20, 4096)
	b.Func("main")
	b.MoviU(isa.X(1), arr)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), 600)
	b.Movi(isa.X(4), 88172)
	b.Label("loop")
	b.Load(isa.X(5), isa.X(1), 0)
	b.Add(isa.X(6), isa.X(5), isa.X(2))
	// Unpredictable branch.
	b.Shli(isa.X(7), isa.X(4), 13)
	b.Xor(isa.X(4), isa.X(4), isa.X(7))
	b.Shri(isa.X(7), isa.X(4), 7)
	b.Xor(isa.X(4), isa.X(4), isa.X(7))
	b.Andi(isa.X(7), isa.X(4), 1)
	b.Beq(isa.X(7), isa.X(0), "skip")
	b.Addi(isa.X(6), isa.X(6), 1)
	b.Label("skip")
	b.Addi(isa.X(1), isa.X(1), 4160)
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// liveAndReplayed runs the program once with a trace writer plus live
// profilers, then replays the trace into fresh profilers.
func liveAndReplayed(t *testing.T) (live, replayed map[string]*pics.Profile, liveCycles, replayCycles uint64) {
	t.Helper()
	p := testProgram()
	c := cpu.New(cpu.DefaultConfig(), p)

	var buf bytes.Buffer
	tw := NewWriter(&buf)
	liveGolden := core.NewGolden(c)
	liveTEA := core.NewTEA(c, teaCfg())
	liveIBS := profilers.NewIBS(128, 8, 7)
	c.Attach(tw)
	c.Attach(liveGolden)
	c.Attach(liveTEA)
	c.Attach(liveIBS)
	st := c.Run()
	if tw.Err() != nil {
		t.Fatalf("trace writer error: %v", tw.Err())
	}

	reGolden := core.NewGolden(nil)
	reTEA := core.NewTEA(nil, teaCfg())
	reIBS := profilers.NewIBS(128, 8, 7)
	cycles, err := ReplayBytes(context.Background(), buf.Bytes(), reGolden, reTEA, reIBS)
	if err != nil {
		t.Fatalf("replay error: %v", err)
	}

	live = map[string]*pics.Profile{
		"golden": liveGolden.Profile(), "TEA": liveTEA.Profile(), "IBS": liveIBS.Profile(),
	}
	replayed = map[string]*pics.Profile{
		"golden": reGolden.Profile(), "TEA": reTEA.Profile(), "IBS": reIBS.Profile(),
	}
	return live, replayed, st.Cycles, cycles
}

func teaCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.IntervalCycles = 128
	cfg.JitterCycles = 8
	return cfg
}

func TestReplayMatchesLiveExactly(t *testing.T) {
	live, replayed, liveCycles, replayCycles := liveAndReplayed(t)
	if liveCycles != replayCycles {
		t.Errorf("cycle counts differ: live %d, replay %d", liveCycles, replayCycles)
	}
	for name := range live {
		a, b := live[name], replayed[name]
		if len(a.Insts) != len(b.Insts) {
			t.Errorf("%s: instruction counts differ: %d vs %d", name, len(a.Insts), len(b.Insts))
		}
		for pc, st := range a.Insts {
			rst := b.Insts[pc]
			if rst == nil {
				t.Errorf("%s: pc %#x missing from replay", name, pc)
				continue
			}
			for sig, v := range st {
				if rv := rst[sig]; rv != v {
					t.Errorf("%s: pc %#x sig %v: live %v, replay %v", name, pc, sig, v, rv)
				}
			}
		}
	}
}

func TestReplayIsRepeatable(t *testing.T) {
	p := testProgram()
	c := cpu.New(cpu.DefaultConfig(), p)
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	c.Attach(tw)
	c.Run()
	data := buf.Bytes()

	g1 := core.NewGolden(nil)
	g2 := core.NewGolden(nil)
	if _, err := ReplayBytes(context.Background(), data, g1); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayBytes(context.Background(), data, g2); err != nil {
		t.Fatal(err)
	}
	if e := pics.Error(g1.Profile(), g2.Profile()); e > 1e-12 {
		t.Errorf("two replays of one trace differ: error %v", e)
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	if _, err := ReplayBytes(context.Background(), []byte("not a trace at all")); err == nil {
		t.Errorf("garbage accepted")
	}
	if _, err := ReplayBytes(context.Background(), []byte("TEAT\x63")); err == nil {
		t.Errorf("bad version accepted")
	}
	if _, err := ReplayBytes(context.Background(), []byte("")); err == nil {
		t.Errorf("empty stream accepted")
	}
}

func TestReplayDetectsTruncation(t *testing.T) {
	p := testProgram()
	c := cpu.New(cpu.DefaultConfig(), p)
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	c.Attach(tw)
	c.Run()
	data := buf.Bytes()
	_, err := ReplayBytes(context.Background(), data[:len(data)/2])
	if err == nil {
		t.Errorf("truncated trace accepted")
	}
}

func TestTraceCompactness(t *testing.T) {
	p := testProgram()
	c := cpu.New(cpu.DefaultConfig(), p)
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	c.Attach(tw)
	st := c.Run()
	perCycle := float64(buf.Len()) / float64(st.Cycles)
	// The paper's golden reference needs ~116 GB/s of trace bandwidth;
	// the point of the compact encoding is to stay far below naive
	// per-cycle struct dumps. ~20 bytes/cycle is plenty.
	if perCycle > 20 {
		t.Errorf("trace uses %.1f bytes/cycle, want compact encoding", perCycle)
	}
	if tw.Counters().Records == 0 {
		t.Errorf("no records written")
	}
}

func TestSquashedUOpsReplayIdentity(t *testing.T) {
	// A program with ordering violations: squashes appear in the trace,
	// and the refetched µops must be distinct identities, as live.
	b := program.NewBuilder("squash")
	base := b.Alloc(4096, 64)
	b.Func("main")
	b.MoviU(isa.X(1), base)
	b.Movi(isa.X(2), 3)
	b.Movi(isa.X(9), 0)
	b.Movi(isa.X(10), 50)
	b.Label("top")
	b.Movi(isa.X(4), 800)
	b.Movi(isa.X(5), 2)
	b.Div(isa.X(4), isa.X(4), isa.X(5))
	b.Div(isa.X(4), isa.X(4), isa.X(5))
	b.Add(isa.X(3), isa.X(1), isa.X(4))
	b.Addi(isa.X(3), isa.X(3), -200)
	b.Store(isa.X(3), isa.X(2), 0)
	b.Load(isa.X(6), isa.X(1), 0)
	b.Add(isa.X(7), isa.X(6), isa.X(6))
	b.Addi(isa.X(9), isa.X(9), 1)
	b.Blt(isa.X(9), isa.X(10), "top")
	b.Halt()
	p := b.MustBuild()

	c := cpu.New(cpu.DefaultConfig(), p)
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	gLive := core.NewGolden(c)
	c.Attach(tw)
	c.Attach(gLive)
	st := c.Run()
	if st.Violations == 0 {
		t.Fatalf("no violations; squash path untested")
	}
	gRe := core.NewGolden(nil)
	if _, err := ReplayBytes(context.Background(), buf.Bytes(), gRe); err != nil {
		t.Fatal(err)
	}
	if e := pics.Error(gRe.Profile(), gLive.Profile()); e > 1e-12 {
		t.Errorf("replay with squashes differs from live: error %v", e)
	}
}

func TestCycleStatesRoundTrip(t *testing.T) {
	// Count per-state cycles live and replayed; they must agree.
	p := testProgram()
	c := cpu.New(cpu.DefaultConfig(), p)
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	liveCount := &stateCounter{}
	c.Attach(tw)
	c.Attach(liveCount)
	c.Run()
	reCount := &stateCounter{}
	if _, err := ReplayBytes(context.Background(), buf.Bytes(), reCount); err != nil {
		t.Fatal(err)
	}
	if *liveCount != *reCount {
		t.Errorf("state counts differ: live %+v, replay %+v", *liveCount, *reCount)
	}
}

type stateCounter struct {
	cpu.BaseProbe
	counts [events.NumCommitStates]uint64
}

func (s *stateCounter) OnCycle(ci *cpu.CycleInfo) { s.counts[ci.State]++ }

// TestWriterBlockAllocations pins the writer's per-block record
// buffers to one allocation each: a fresh writer encoding one full
// block allocates a small constant number of times, where growing
// seven block-sized slices by append costs one allocation per growth
// step, about 140 in all.
func TestWriterBlockAllocations(t *testing.T) {
	ci := &cpu.CycleInfo{State: events.Compute, Committed: make([]cpu.Ref, 1)}
	allocs := testing.AllocsPerRun(3, func() {
		tw := NewWriter(io.Discard)
		// A loop body of four records: the match parse absorbs all but
		// its first instances, so the literal columns stay small and
		// the count isolates the record buffers.
		for i := uint64(0); i < blockRecords/4; i++ {
			r := cpu.Ref{Seq: i, PC: isa.PCOf(int(i % 8))}
			tw.OnFetch(r, i)
			tw.OnDispatch(r, i)
			tw.OnCommit(r, i)
			ci.Cycle, ci.Committed[0] = i, r
			tw.OnCycle(ci)
		}
		tw.OnDone(blockRecords / 4)
		if tw.Err() != nil {
			t.Fatal(tw.Err())
		}
	})
	if allocs > 32 {
		t.Errorf("encoding one block allocated %v times, want at most 32", allocs)
	}
}
