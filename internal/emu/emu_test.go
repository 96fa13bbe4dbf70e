package emu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

func sumLoop(n int64) *program.Program {
	b := program.NewBuilder("sum")
	b.Func("main")
	b.Movi(isa.X(1), 0) // i
	b.Movi(isa.X(2), 0) // sum
	b.Movi(isa.X(3), n)
	b.Label("loop")
	b.Add(isa.X(2), isa.X(2), isa.X(1))
	b.Addi(isa.X(1), isa.X(1), 1)
	b.Blt(isa.X(1), isa.X(3), "loop")
	b.Halt()
	return b.MustBuild()
}

func drain(s *Stream) []*Inst {
	var out []*Inst
	for {
		d := s.Next()
		if d == nil {
			return out
		}
		out = append(out, d)
	}
}

func TestSumLoopResult(t *testing.T) {
	p := sumLoop(10)
	s := NewStream(p)
	drain(s)
	if got := s.Reg(isa.X(2)); got != 45 {
		t.Errorf("sum 0..9 = %d, want 45", got)
	}
	if !s.Done() {
		t.Errorf("stream not done after drain")
	}
}

func TestDynamicInstructionCount(t *testing.T) {
	p := sumLoop(5)
	// 3 movi + 5*(add,addi,blt) + halt = 19
	if n := Run(p); n != 19 {
		t.Errorf("dynamic count = %d, want 19", n)
	}
}

func TestBranchOutcomes(t *testing.T) {
	p := sumLoop(3)
	s := NewStream(p)
	insts := drain(s)
	var branches []*Inst
	for _, d := range insts {
		if d.IsBranch() {
			branches = append(branches, d)
		}
	}
	if len(branches) != 3 {
		t.Fatalf("got %d dynamic branches, want 3", len(branches))
	}
	for i, br := range branches {
		wantTaken := i < 2
		if br.Taken != wantTaken {
			t.Errorf("branch %d taken=%v, want %v", i, br.Taken, wantTaken)
		}
		if wantTaken && br.NextIndex != br.Static.Target {
			t.Errorf("taken branch NextIndex=%d, want target %d", br.NextIndex, br.Static.Target)
		}
		if !wantTaken && br.NextIndex != br.Index+1 {
			t.Errorf("not-taken branch NextIndex=%d, want fallthrough %d", br.NextIndex, br.Index+1)
		}
	}
}

func TestLoadStoreAddresses(t *testing.T) {
	b := program.NewBuilder("mem")
	base := b.Alloc(64, 8)
	b.SetWord(base, 7)
	b.Func("main")
	b.MoviU(isa.X(1), base)
	b.Load(isa.X(2), isa.X(1), 0)  // x2 = 7
	b.Store(isa.X(1), isa.X(2), 8) // mem[base+8] = 7
	b.Load(isa.X(3), isa.X(1), 8)  // x3 = 7
	b.Add(isa.X(4), isa.X(2), isa.X(3))
	b.Halt()
	p := b.MustBuild()
	s := NewStream(p)
	insts := drain(s)
	if s.Reg(isa.X(4)) != 14 {
		t.Errorf("x4 = %d, want 14", s.Reg(isa.X(4)))
	}
	if insts[1].MemAddr != base || insts[2].MemAddr != base+8 {
		t.Errorf("mem addresses: load=%#x store=%#x", insts[1].MemAddr, insts[2].MemAddr)
	}
	if s.Memory().Load(base+8) != 7 {
		t.Errorf("store did not update memory")
	}
}

func TestFloatOps(t *testing.T) {
	b := program.NewBuilder("fp")
	b.Func("main")
	b.Movi(isa.X(1), 9)
	b.FMovI(isa.F(1), isa.X(1)) // f1 = 9.0
	b.FSqrt(isa.F(2), isa.F(1)) // f2 = 3.0
	b.Movi(isa.X(2), 2)
	b.FMovI(isa.F(3), isa.X(2))
	b.FMul(isa.F(4), isa.F(2), isa.F(3))                        // 6.0
	b.FAdd(isa.F(5), isa.F(4), isa.F(3))                        // 8.0
	b.FDiv(isa.F(6), isa.F(5), isa.F(3))                        // 4.0
	b.FSub(isa.F(7), isa.F(6), isa.F(3))                        // 2.0
	b.FCmpLT(isa.X(3), isa.F(3), isa.F(6))                      // 2 < 4 -> 1
	b.I(isa.Inst{Op: isa.OpIMovF, Rd: isa.X(4), Rs1: isa.F(7)}) // 2
	b.Halt()
	p := b.MustBuild()
	s := NewStream(p)
	drain(s)
	if s.Reg(isa.X(3)) != 1 {
		t.Errorf("flt result = %d, want 1", s.Reg(isa.X(3)))
	}
	if s.Reg(isa.X(4)) != 2 {
		t.Errorf("fp->int = %d, want 2", s.Reg(isa.X(4)))
	}
}

func TestDivRemByZero(t *testing.T) {
	b := program.NewBuilder("div0")
	b.Func("main")
	b.Movi(isa.X(1), 10)
	b.Movi(isa.X(2), 0)
	b.Div(isa.X(3), isa.X(1), isa.X(2))
	b.Rem(isa.X(4), isa.X(1), isa.X(2))
	b.Movi(isa.X(5), 3)
	b.Div(isa.X(6), isa.X(1), isa.X(5))
	b.Rem(isa.X(7), isa.X(1), isa.X(5))
	b.Halt()
	s := NewStream(b.MustBuild())
	drain(s)
	if s.Reg(isa.X(3)) != 0 || s.Reg(isa.X(4)) != 0 {
		t.Errorf("div/rem by zero should yield 0")
	}
	if s.Reg(isa.X(6)) != 3 || s.Reg(isa.X(7)) != 1 {
		t.Errorf("10/3=%d 10%%3=%d, want 3 and 1", s.Reg(isa.X(6)), s.Reg(isa.X(7)))
	}
}

func TestX0Hardwired(t *testing.T) {
	b := program.NewBuilder("x0")
	b.Func("main")
	b.Movi(isa.X(0), 99)
	b.Addi(isa.X(1), isa.X(0), 5)
	b.Halt()
	s := NewStream(b.MustBuild())
	drain(s)
	if s.Reg(isa.X(0)) != 0 {
		t.Errorf("x0 = %d, want 0", s.Reg(isa.X(0)))
	}
	if s.Reg(isa.X(1)) != 5 {
		t.Errorf("x1 = %d, want 5", s.Reg(isa.X(1)))
	}
}

func TestRewindRedeliversSameRecords(t *testing.T) {
	p := sumLoop(4)
	s := NewStream(p)
	var first []*Inst
	for i := 0; i < 8; i++ {
		first = append(first, s.Next())
	}
	s.Rewind(3)
	for i := 3; i < 8; i++ {
		d := s.Next()
		if d != first[i] {
			t.Fatalf("rewound delivery %d: got seq %d, want same record seq %d", i, d.Seq, first[i].Seq)
		}
	}
	// Continue past the previously generated point.
	d := s.Next()
	if d == nil || d.Seq != 8 {
		t.Fatalf("post-rewind generation broken: %+v", d)
	}
}

func TestReleaseDropsBufferAndForbidsRewind(t *testing.T) {
	p := sumLoop(4)
	s := NewStream(p)
	for i := 0; i < 6; i++ {
		s.Next()
	}
	s.Release(4)
	defer func() {
		if recover() == nil {
			t.Fatalf("rewind below released seq should panic")
		}
	}()
	s.Rewind(2)
}

func TestSequenceNumbersMonotonic(t *testing.T) {
	p := sumLoop(6)
	s := NewStream(p)
	prev := int64(-1)
	for {
		d := s.Next()
		if d == nil {
			break
		}
		if int64(d.Seq) != prev+1 {
			t.Fatalf("seq jumped from %d to %d", prev, d.Seq)
		}
		prev = int64(d.Seq)
		s.Release(d.Seq + 1)
	}
}

func TestHaltEndsStream(t *testing.T) {
	b := program.NewBuilder("halt")
	b.Func("main")
	b.Nop()
	b.Halt()
	b.Nop() // unreachable
	s := NewStream(b.MustBuild())
	insts := drain(s)
	if len(insts) != 2 {
		t.Fatalf("got %d dynamic insts, want 2 (nop+halt)", len(insts))
	}
	if insts[1].Static.Op != isa.OpHalt || insts[1].NextIndex != -1 {
		t.Errorf("halt record malformed: %+v", insts[1])
	}
}

// TestStreamBufferSequences drives Next, Rewind and Release through the
// buffer's edge cases: a rewind after a partial release, a release of
// everything delivered, and a rewind to the buffer's end. It runs long
// enough that Next moves the live entries to the front at capacity,
// and checks that every delivery carries the expected sequence number
// and that a redelivery returns the same record.
func TestStreamBufferSequences(t *testing.T) {
	s := NewStream(sumLoop(400))
	records := map[uint64]*Inst{}
	deliver := func(want uint64) {
		t.Helper()
		d := s.Next()
		if d == nil || d.Seq != want {
			t.Fatalf("Next delivered %+v, want seq %d", d, want)
		}
		if prev, ok := records[want]; ok && prev != d {
			t.Fatalf("seq %d redelivered a different record", want)
		}
		records[want] = d
	}
	var next, released uint64 // next seq to deliver; first unreleased seq
	compacted := false
	for round := 0; round < 80; round++ {
		for range 5 + round%7 {
			head := s.head
			deliver(next)
			next++
			compacted = compacted || s.head < head
		}
		released += (next - released) / 2
		s.Release(released)
		s.Rewind(released)
		for seq := released; seq < next; seq++ {
			deliver(seq)
		}
		s.Rewind(next)
		if round%5 == 4 {
			released = next
			s.Release(released)
			s.Rewind(released)
		}
	}
	if !compacted {
		t.Error("Next never moved the live entries to the front of the buffer")
	}
}
