// Package emu functionally executes a program and produces the
// correct-path dynamic instruction stream that the timing model
// consumes. Each dynamic instruction record carries its resolved memory
// address and branch outcome, so the cycle-level core never needs to
// re-execute semantics; it only models timing. The stream buffers
// uncommitted instructions and supports rewinding, which the core uses
// to refetch after squashing younger instructions on a memory-ordering
// violation.
package emu

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/simerr"
)

// Inst is one dynamic (committed-path) instruction.
type Inst struct {
	// Static points at the static instruction.
	Static *isa.Inst
	// Index is the static-instruction index of the instruction.
	Index int
	// PC is the instruction's code address.
	PC uint64
	// Seq is the dynamic sequence number (0-based).
	Seq uint64
	// MemAddr is the effective address for loads, stores, and
	// prefetches; 0 otherwise.
	MemAddr uint64
	// Taken reports the outcome for conditional branches (always true
	// for jumps).
	Taken bool
	// NextIndex is the static index of the dynamically next instruction.
	NextIndex int
}

// IsBranch reports whether the dynamic instruction is control flow.
func (d *Inst) IsBranch() bool { return isa.IsBranch(d.Static.Op) }

// Memory is the functional data memory: a sparse map of 8-byte words.
type Memory struct {
	words map[uint64]uint64
}

// NewMemory returns a memory initialized from the program's data image.
//
//tealint:detsafe copies init into a fresh map; word insertion order is unobservable, the resulting memory is order-independent
func NewMemory(init map[uint64]uint64) *Memory {
	m := &Memory{words: make(map[uint64]uint64, len(init))}
	for a, v := range init {
		m.words[a] = v
	}
	return m
}

// Load reads the 8-byte word containing addr (addr is rounded down).
func (m *Memory) Load(addr uint64) uint64 { return m.words[addr&^7] }

// Store writes the 8-byte word containing addr.
func (m *Memory) Store(addr, val uint64) { m.words[addr&^7] = val }

// Stream generates the dynamic instruction stream for a program.
type Stream struct {
	prog *program.Program
	mem  *Memory
	regs [isa.NumRegs]uint64

	pcIndex int
	seq     uint64
	done    bool

	// buf[head:] holds generated but not yet released (committed)
	// dynamic instructions; buf[head] has sequence number bufBase.
	// cursor is the next buffered position to deliver. Release only
	// advances head; Next moves the live entries to the front when it
	// appends at capacity, so a commit shifts no pointers.
	buf     []*Inst
	head    int
	bufBase uint64
	cursor  int

	// free recycles released instruction records. The core returns a
	// record via RecycleInst once the last pipeline structure holding it
	// retires; step reuses pooled records instead of allocating.
	free []*Inst

	// MaxInsts bounds execution to guard against runaway programs.
	MaxInsts uint64
}

// NewStream returns a stream positioned at the first instruction.
func NewStream(p *program.Program) *Stream {
	return &Stream{
		prog:     p,
		mem:      NewMemory(p.Data),
		MaxInsts: 2_000_000_000,
	}
}

// Memory exposes the functional memory (for tests and workload setup).
func (s *Stream) Memory() *Memory { return s.mem }

// Reg returns the architectural value of register r.
func (s *Stream) Reg(r isa.Reg) uint64 { return s.regs[r] }

// Done reports whether the program has halted and every generated
// instruction has been delivered.
func (s *Stream) Done() bool { return s.done && s.cursor == len(s.buf) }

// Next returns the next correct-path dynamic instruction, or nil when
// the program has halted. After a Rewind, Next re-delivers buffered
// instructions before generating new ones.
func (s *Stream) Next() *Inst {
	if s.cursor < len(s.buf) {
		d := s.buf[s.cursor]
		s.cursor++
		return d
	}
	if s.done {
		return nil
	}
	d := s.step()
	if d == nil {
		return nil
	}
	if len(s.buf) == cap(s.buf) && s.head > 0 {
		n := copy(s.buf, s.buf[s.head:])
		s.buf = s.buf[:n]
		s.head = 0
	}
	s.buf = append(s.buf, d)
	s.cursor = len(s.buf)
	return d
}

// Rewind repositions the stream so the next Next call re-delivers the
// buffered instruction with sequence number seq. Instructions with
// lower sequence numbers must not have been released yet.
func (s *Stream) Rewind(seq uint64) {
	if end := s.bufBase + uint64(len(s.buf)-s.head); seq < s.bufBase || seq > end {
		//tealint:ignore nakedpanic caller (the core) controls rewind targets; out-of-range is a simulator bug, recovered at API boundaries
		panic(fmt.Sprintf("emu: rewind to seq %d outside buffer [%d,%d]", seq, s.bufBase, end))
	}
	s.cursor = s.head + int(seq-s.bufBase)
}

// Release discards buffered instructions with sequence numbers below
// seq; they can no longer be rewound to. The core calls this at commit.
func (s *Stream) Release(seq uint64) {
	if seq <= s.bufBase {
		return
	}
	n := int(seq - s.bufBase)
	if n > s.cursor-s.head {
		//tealint:ignore nakedpanic commit order guarantees released seqs were delivered; violation is a simulator bug, recovered at API boundaries
		panic(fmt.Sprintf("emu: releasing undelivered instructions (seq %d, cursor at %d)",
			seq, s.bufBase+uint64(s.cursor-s.head)))
	}
	s.head += n
	s.bufBase = seq
}

// RecycleInst returns a released instruction record to the pool. The
// caller must be the record's last holder: it must already have been
// released (so the stream cannot re-deliver it) and no pipeline
// structure may still point at it.
func (s *Stream) RecycleInst(d *Inst) {
	s.free = append(s.free, d)
}

func f64(bits uint64) float64 { return math.Float64frombits(bits) }
func bits(f float64) uint64   { return math.Float64bits(f) }
func (s *Stream) wr(r isa.Reg, v uint64) {
	if r != isa.RegZero && r != isa.NoReg {
		s.regs[r] = v
	}
}

// step architecturally executes one instruction and returns its record.
func (s *Stream) step() *Inst {
	if s.pcIndex < 0 || s.pcIndex >= len(s.prog.Insts) {
		s.done = true
		return nil
	}
	if s.seq >= s.MaxInsts {
		// Reachable from user input (a program that never halts), so the
		// panic carries a typed error; run APIs recover it at the
		// boundary and return simerr.ErrRunaway.
		panic(simerr.New(simerr.ErrRunaway,
			simerr.Snapshot{Program: s.prog.Name, Seq: s.seq, PC: isa.PCOf(s.pcIndex)},
			"program %q exceeded %d instructions", s.prog.Name, s.MaxInsts))
	}
	in := &s.prog.Insts[s.pcIndex]
	var d *Inst
	if n := len(s.free); n > 0 {
		d = s.free[n-1]
		s.free = s.free[:n-1]
		*d = Inst{Static: in, Index: s.pcIndex, PC: isa.PCOf(s.pcIndex), Seq: s.seq}
	} else {
		d = &Inst{Static: in, Index: s.pcIndex, PC: isa.PCOf(s.pcIndex), Seq: s.seq}
	}
	s.seq++
	next := s.pcIndex + 1

	// Every case reads its sources before wr writes the destination,
	// so reading through the pointer sees the pre-instruction values.
	r := &s.regs
	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		s.wr(in.Rd, r[in.Rs1]+r[in.Rs2])
	case isa.OpSub:
		s.wr(in.Rd, r[in.Rs1]-r[in.Rs2])
	case isa.OpMul:
		s.wr(in.Rd, r[in.Rs1]*r[in.Rs2])
	case isa.OpDiv:
		if r[in.Rs2] == 0 {
			s.wr(in.Rd, 0)
		} else {
			s.wr(in.Rd, uint64(int64(r[in.Rs1])/int64(r[in.Rs2])))
		}
	case isa.OpRem:
		if r[in.Rs2] == 0 {
			s.wr(in.Rd, 0)
		} else {
			s.wr(in.Rd, uint64(int64(r[in.Rs1])%int64(r[in.Rs2])))
		}
	case isa.OpAnd:
		s.wr(in.Rd, r[in.Rs1]&r[in.Rs2])
	case isa.OpOr:
		s.wr(in.Rd, r[in.Rs1]|r[in.Rs2])
	case isa.OpXor:
		s.wr(in.Rd, r[in.Rs1]^r[in.Rs2])
	case isa.OpShl:
		s.wr(in.Rd, r[in.Rs1]<<(r[in.Rs2]&63))
	case isa.OpShr:
		s.wr(in.Rd, r[in.Rs1]>>(r[in.Rs2]&63))
	case isa.OpAddi:
		s.wr(in.Rd, r[in.Rs1]+uint64(in.Imm))
	case isa.OpAndi:
		s.wr(in.Rd, r[in.Rs1]&uint64(in.Imm))
	case isa.OpShli:
		s.wr(in.Rd, r[in.Rs1]<<(uint64(in.Imm)&63))
	case isa.OpShri:
		s.wr(in.Rd, r[in.Rs1]>>(uint64(in.Imm)&63))
	case isa.OpMovi:
		s.wr(in.Rd, uint64(in.Imm))
	case isa.OpSlt:
		if int64(r[in.Rs1]) < int64(r[in.Rs2]) {
			s.wr(in.Rd, 1)
		} else {
			s.wr(in.Rd, 0)
		}
	case isa.OpFAdd:
		s.wr(in.Rd, bits(f64(r[in.Rs1])+f64(r[in.Rs2])))
	case isa.OpFSub:
		s.wr(in.Rd, bits(f64(r[in.Rs1])-f64(r[in.Rs2])))
	case isa.OpFMul:
		s.wr(in.Rd, bits(f64(r[in.Rs1])*f64(r[in.Rs2])))
	case isa.OpFDiv:
		s.wr(in.Rd, bits(f64(r[in.Rs1])/f64(r[in.Rs2])))
	case isa.OpFSqrt:
		s.wr(in.Rd, bits(math.Sqrt(f64(r[in.Rs1]))))
	case isa.OpFNeg:
		s.wr(in.Rd, bits(-f64(r[in.Rs1])))
	case isa.OpFMin:
		s.wr(in.Rd, bits(math.Min(f64(r[in.Rs1]), f64(r[in.Rs2]))))
	case isa.OpFMax:
		s.wr(in.Rd, bits(math.Max(f64(r[in.Rs1]), f64(r[in.Rs2]))))
	case isa.OpFCmpLT:
		if f64(r[in.Rs1]) < f64(r[in.Rs2]) {
			s.wr(in.Rd, 1)
		} else {
			s.wr(in.Rd, 0)
		}
	case isa.OpFMovI:
		s.wr(in.Rd, bits(float64(int64(r[in.Rs1]))))
	case isa.OpIMovF:
		s.wr(in.Rd, uint64(int64(f64(r[in.Rs1]))))
	case isa.OpLoad, isa.OpLoadF:
		d.MemAddr = r[in.Rs1] + uint64(in.Imm)
		s.wr(in.Rd, s.mem.Load(d.MemAddr))
	case isa.OpStore, isa.OpStoreF:
		d.MemAddr = r[in.Rs1] + uint64(in.Imm)
		s.mem.Store(d.MemAddr, r[in.Rs2])
	case isa.OpPrefetch:
		d.MemAddr = r[in.Rs1] + uint64(in.Imm)
	case isa.OpBeq:
		d.Taken = r[in.Rs1] == r[in.Rs2]
	case isa.OpBne:
		d.Taken = r[in.Rs1] != r[in.Rs2]
	case isa.OpBlt:
		d.Taken = int64(r[in.Rs1]) < int64(r[in.Rs2])
	case isa.OpBge:
		d.Taken = int64(r[in.Rs1]) >= int64(r[in.Rs2])
	case isa.OpJmp:
		d.Taken = true
	case isa.OpCall:
		s.wr(in.Rd, isa.PCOf(s.pcIndex+1)) // link: the return address
		d.Taken = true
	case isa.OpRet:
		d.Taken = true
	case isa.OpCsrFlush:
	case isa.OpHalt:
		s.done = true
	default:
		// Reachable from user-built programs (a corrupt or future-version
		// opcode); typed so API boundaries convert it to an error.
		panic(simerr.New(simerr.ErrInvalidProgram,
			simerr.Snapshot{Program: s.prog.Name, Seq: s.seq, PC: d.PC},
			"unimplemented opcode %v", in.Op))
	}

	if d.Taken && isa.IsBranch(in.Op) {
		if in.Op == isa.OpRet {
			next = isa.IndexOf(r[in.Rs1])
		} else {
			next = in.Target
		}
	}
	d.NextIndex = next
	s.pcIndex = next
	if in.Op == isa.OpHalt {
		d.NextIndex = -1
	}
	return d
}

// Run executes the whole program functionally (no timing) and returns
// the number of dynamic instructions. Useful for workload validation.
func Run(p *program.Program) uint64 {
	s := NewStream(p)
	n := uint64(0)
	for {
		d := s.Next()
		if d == nil {
			return n
		}
		n++
		s.Release(d.Seq + 1)
	}
}
