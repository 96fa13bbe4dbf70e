package cpu_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/pics"
	"repro/internal/profilers"
	"repro/internal/trace"
)

// runEvent is one step of a hook script: a commit, or a cycle that
// stands for n identical cycles from its Cycle on.
type runEvent struct {
	commit *cpu.Ref
	ci     cpu.CycleInfo
	n      uint64
}

// runScript builds hook scripts with increasing cycles: a Compute cycle
// commits its refs first (OnCommit precedes OnCycle, as in the core).
type runScript struct {
	cycle  uint64
	events []runEvent
}

func (s *runScript) cycles(ci cpu.CycleInfo, n uint64) *runScript {
	ci.Cycle = s.cycle + 1
	s.cycle += n
	s.events = append(s.events, runEvent{ci: ci, n: n})
	return s
}

func (s *runScript) compute(refs ...cpu.Ref) *runScript {
	for i := range refs {
		s.events = append(s.events, runEvent{commit: &refs[i], ci: cpu.CycleInfo{Cycle: s.cycle + 1}})
	}
	return s.cycles(cpu.CycleInfo{State: events.Compute, Committed: refs}, 1)
}

func (s *runScript) stalled(head cpu.Ref, n uint64) *runScript {
	return s.cycles(cpu.CycleInfo{State: events.Stalled, Head: head}, n)
}

func (s *runScript) drained(n uint64) *runScript {
	return s.cycles(cpu.CycleInfo{State: events.Drained}, n)
}

func (s *runScript) flushed(last cpu.Ref, n uint64) *runScript {
	return s.cycles(cpu.CycleInfo{State: events.Flushed, LastCommitted: last}, n)
}

// play feeds the script to p: each cycle event as one OnCycles call
// when runs is set, else as n OnCycle calls with the cycle advancing.
func (s *runScript) play(p cpu.Probe, runs bool) {
	for _, e := range s.events {
		if e.commit != nil {
			p.OnCommit(*e.commit, e.ci.Cycle)
			continue
		}
		ci := e.ci
		if runs {
			p.(cpu.RunProbe).OnCycles(&ci, e.n)
			continue
		}
		for k := range e.n {
			ci.Cycle = e.ci.Cycle + k
			p.OnCycle(&ci)
		}
	}
	p.OnDone(s.cycle)
}

// profileBits is a profile's every component by (PC, signature), as
// float64 bits.
func profileBits(p *pics.Profile) map[[2]uint64]uint64 {
	out := map[[2]uint64]uint64{}
	for pc, st := range p.Insts {
		for sig, v := range st {
			out[[2]uint64{pc, uint64(sig)}] = math.Float64bits(v)
		}
	}
	return out
}

// runProbe builds one probe of the run contract and reads back every
// piece of its state a run could change.
type runProbe struct {
	name  string
	build func() (cpu.Probe, func() any)
}

const (
	runInterval = 64
	runJitter   = 8
)

func teaState(t *core.TEA) func() any {
	return func() any { return []any{profileBits(t.Profile()), t.Samples(), t.SampleCnt} }
}

func taggerState(f *profilers.FrontEndTagger) func() any {
	return func() any { return []any{profileBits(f.Profile()), f.Samples, f.Dropped} }
}

var runProbes = []runProbe{
	{"golden", func() (cpu.Probe, func() any) { g := core.NewGolden(nil); return g, teaState(g) }},
	{"tea", func() (cpu.Probe, func() any) {
		cfg := core.DefaultConfig()
		cfg.IntervalCycles, cfg.JitterCycles, cfg.Seed = runInterval, runJitter, 3
		t := core.NewTEA(nil, cfg)
		return t, teaState(t)
	}},
	{"nci-tea", func() (cpu.Probe, func() any) {
		n := profilers.NewNCITEA(runInterval, runJitter, 4)
		return n, func() any { return profileBits(n.Profile()) }
	}},
	{"ibs", func() (cpu.Probe, func() any) {
		f := profilers.NewIBS(runInterval, runJitter, 5)
		return f, taggerState(f)
	}},
	{"spe", func() (cpu.Probe, func() any) {
		f := profilers.NewSPE(runInterval, runJitter, 6)
		return f, taggerState(f)
	}},
	{"ris", func() (cpu.Probe, func() any) {
		f := profilers.NewRIS(runInterval, runJitter, 7)
		return f, taggerState(f)
	}},
	{"d-tea", func() (cpu.Probe, func() any) {
		f := profilers.NewDTEA(runInterval, runJitter, 8)
		return f, taggerState(f)
	}},
	{"stalls", func() (cpu.Probe, func() any) {
		s := profilers.NewStallProbe()
		return s, func() any { return []any{s.EventFreeStalls, s.EventStalls} }
	}},
	{"writer", func() (cpu.Probe, func() any) {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		return w, func() any { return []any{buf.Bytes(), w.Counters(), w.Err()} }
	}},
}

// TestRunProbesMatchPerCycle pins the run contract (cpu.RunProbe) for
// every probe that has a run path: OnCycles(ci, n) leaves exactly the
// state of n OnCycle calls: profile components to the bit, samples
// with their cycles and weights, sample counts, stall lists, and the
// writer's bytes and counters.
func TestRunProbesMatchPerCycle(t *testing.T) {
	a := cpu.Ref{Seq: 10, PC: 0x1000, PSV: events.PSV(0).Set(events.STL1)}
	b := cpu.Ref{Seq: 11, PC: 0x1004}
	c := cpu.Ref{Seq: 12, PC: 0x1008, PSV: events.PSV(0).Set(events.FLMB)}
	// d shares a's slot: its stall run lands where a's Compute cycle
	// left a third of a cycle.
	d := cpu.Ref{Seq: 13, PC: a.PC, PSV: a.PSV}
	e := cpu.Ref{Seq: 14, PC: 0x1010}
	rows := []struct {
		name   string
		script *runScript
	}{
		{"n=1", new(runScript).compute(a).stalled(b, 1).compute(b).drained(1).compute(c).flushed(c, 1).compute(d)},
		{"jittered-run-over-two-intervals", new(runScript).compute(a).drained(5*runInterval+3).compute(b).
			stalled(c, 2*runInterval+runJitter+1).compute(c)},
		{"golden-run-after-compute-fraction", new(runScript).compute(a, b, c).stalled(d, 1000).compute(d)},
		{"stalled", new(runScript).compute(a).stalled(b, 300).compute(b)},
		{"drained", new(runScript).compute(a).drained(300).compute(b)},
		{"flushed", new(runScript).compute(c).flushed(c, 300).drained(7).compute(d)},
		{"writer-run-crosses-blocks", new(runScript).compute(a).stalled(e, 1<<16+100).compute(e)},
	}
	for _, row := range rows {
		for _, rp := range runProbes {
			perCycle, perCycleState := rp.build()
			run, runState := rp.build()
			row.script.play(perCycle, false)
			row.script.play(run, true)
			if want, got := perCycleState(), runState(); !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: OnCycles left a different state than per-cycle OnCycle", row.name, rp.name)
			}
		}
	}
}
