package trace_test

import (
	"bytes"
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/trace"
)

// hookLog folds every hook it receives into a digest, one OnCycle per
// cycle: a run it receives is expanded and counted.
type hookLog struct {
	h, hooks, runs uint64
}

func (l *hookLog) mix(vs ...uint64) {
	for _, v := range vs {
		l.h = (l.h ^ v) * 0x100000001b3
	}
	l.hooks++
}

func (l *hookLog) ref(r cpu.Ref) { l.mix(r.Seq, r.PC, uint64(r.PSV)) }

func (l *hookLog) OnFetch(r cpu.Ref, cycle uint64)    { l.mix(1, cycle); l.ref(r) }
func (l *hookLog) OnDispatch(r cpu.Ref, cycle uint64) { l.mix(2, cycle); l.ref(r) }
func (l *hookLog) OnCommit(r cpu.Ref, cycle uint64)   { l.mix(3, cycle); l.ref(r) }
func (l *hookLog) OnSquash(r cpu.Ref, cycle uint64)   { l.mix(4, cycle); l.ref(r) }
func (l *hookLog) OnDone(total uint64)                { l.mix(6, total) }

func (l *hookLog) OnCycle(ci *cpu.CycleInfo) {
	l.mix(5, ci.Cycle, uint64(ci.State))
	for _, r := range ci.Committed {
		l.ref(r)
	}
	l.ref(ci.Head)
	l.ref(ci.LastCommitted)
}

func (l *hookLog) OnCycles(ci *cpu.CycleInfo, n uint64) {
	l.runs++
	cpu.EachCycle(ci, n, l.OnCycle)
}

// randomHooks drives probes with a random hook script that a core
// never emits but a stream can hold: cycle records repeating with
// cycle deltas of 0 to 3, heads that change with no commit between,
// and refs to instructions the replay window drops at the record
// naming them, among runs of identical cycles long enough to cross
// blocks. Commits go mostly in order, so the window slides.
func randomHooks(rng *rand.Rand, steps int, probes ...cpu.Probe) {
	var cycle, next, inOrder uint64 // inOrder: the oldest seq not yet committed in order
	var recent []uint64
	pick := func() uint64 {
		switch {
		case len(recent) == 0:
			return next
		case inOrder > 0 && rng.IntN(3) == 0:
			return inOrder - 1 // the last in-order commit, which the window drops
		}
		return recent[rng.IntN(len(recent))]
	}
	var ci cpu.CycleInfo
	for range steps {
		switch k := rng.IntN(12); {
		case k < 2:
			r := cpu.Ref{Seq: next, PC: 0x1000 + 4*uint64(rng.IntN(16))}
			next++
			recent = append(recent, r.Seq)
			if len(recent) > 24 {
				recent = recent[1:]
			}
			for _, p := range probes {
				p.OnFetch(r, cycle)
			}
		case k == 2:
			r := cpu.Ref{Seq: pick()}
			for _, p := range probes {
				p.OnDispatch(r, cycle)
			}
		case k == 3:
			r := cpu.Ref{Seq: pick(), PSV: events.PSV(rng.IntN(1 << events.NumEvents))}
			if inOrder < next && rng.IntN(2) == 0 {
				r.Seq = inOrder
				inOrder++
			}
			for _, p := range probes {
				p.OnCommit(r, cycle)
			}
		case k == 4:
			r := cpu.Ref{Seq: pick()}
			for _, p := range probes {
				p.OnSquash(r, cycle)
			}
		default:
			ci = cpu.CycleInfo{State: events.CommitState(rng.IntN(events.NumCommitStates))}
			switch ci.State {
			case events.Compute:
				for range 1 + rng.IntN(3) {
					ci.Committed = append(ci.Committed, cpu.Ref{Seq: pick()})
				}
			case events.Stalled:
				ci.Head = cpu.Ref{Seq: pick()}
			case events.Flushed:
				ci.LastCommitted = cpu.Ref{Seq: pick()}
			}
			reps := 1
			switch rng.IntN(40) {
			case 0:
				reps = 1 << 15
			case 1, 2, 3, 4, 5, 6, 7, 8:
				reps = 2 + rng.IntN(200)
			}
			cycle += uint64(rng.IntN(4))
			for range reps {
				if rng.IntN(50) == 0 {
					cycle += uint64(rng.IntN(4)) // a gap, or a repeated cycle
					if ci.State == events.Stalled {
						ci.Head = cpu.Ref{Seq: pick()}
					}
				}
				ci.Cycle = cycle
				for _, p := range probes {
					p.OnCycle(&ci)
				}
				cycle++
			}
		}
	}
	for _, p := range probes {
		p.OnDone(cycle)
	}
}

// TestReplayRunsMatchRecordReplay pins the reader's run rule against
// the retired record-at-a-time reader, which delivers every record on
// its own: for random hook scripts, replaying the v4 stream (which
// folds identical cycle records into runs) must deliver exactly the
// hooks the v3 reader delivers for the same script, and must form runs.
func TestReplayRunsMatchRecordReplay(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		var v4 bytes.Buffer
		w4, w3 := trace.NewWriter(&v4), newV3Writer()
		randomHooks(rand.New(rand.NewPCG(seed, 0x7E5)), 3000, w4, w3)
		var runs, records hookLog
		if _, err := trace.ReplayBytes(context.Background(), v4.Bytes(), &runs); err != nil {
			t.Fatalf("seed %d: v4 replay: %v", seed, err)
		}
		if _, err := v3ReplayBytes(w3.Bytes(), &records); err != nil {
			t.Fatalf("seed %d: v3 replay: %v", seed, err)
		}
		if runs.h != records.h || runs.hooks != records.hooks {
			t.Errorf("seed %d: v4 replay delivered %d hooks (digest %#x), v3 %d (%#x)",
				seed, runs.hooks, runs.h, records.hooks, records.h)
		}
		if runs.runs == 0 {
			t.Errorf("seed %d: the v4 replay formed no run", seed)
		}
	}
}
