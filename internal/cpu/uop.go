package cpu

import (
	"repro/internal/emu"
	"repro/internal/events"
	"repro/internal/isa"
)

// UOp is one in-flight micro-operation: a dynamic instruction plus its
// timing state and Performance Signature Vector. µop storage is
// recycled through the core's free list the moment it leaves the
// pipeline, so *UOp pointers must not escape internal/cpu — probes see
// value-typed Refs instead (the tealint proberetain analyzer enforces
// this).
type UOp struct {
	// Dyn is the functional record of the instruction.
	Dyn *emu.Inst
	// PSV accumulates the performance events this µop is subjected to.
	PSV events.PSV

	// Pipeline timestamps.
	FetchCycle    uint64
	DispatchCycle uint64
	IssueCycle    uint64
	CompleteCycle uint64
	CommitCycle   uint64

	dispatched bool
	issued     bool
	completed  bool
	committed  bool
	squashed   bool

	// Mispredicted marks a conditional branch whose predicted direction
	// was wrong (FL-MB is set in the PSV as well).
	Mispredicted bool

	// gen counts reuses of this µop's storage. A consumer that wires a
	// source dependency records the producer's generation; a mismatch
	// later means the producer was recycled, which can only happen
	// after it committed — i.e. the operand is architecturally ready.
	gen uint32

	// Register dependencies: the producing µops of the two source
	// operands (nil when the value is architecturally ready), tagged
	// with the producer's generation at wiring time.
	src1, src2       *UOp
	src1Gen, src2Gen uint32

	// Load/store unit state.
	aguDone    uint64 // cycle the effective address is available
	translated bool
	tlbDone    uint64
	// retryAt is the first cycle an L1D MSHR frees, as reported by the
	// latest rejected access of this load or draining store.
	retryAt uint64
	// valueFromSeq is the sequence number of the store a load forwarded
	// from, or -1 when the value came from the cache.
	valueFromSeq int64
	hasValue     bool   // load obtained its value (forwarded or cache access issued)
	drainStarted bool   // committed store began its cache write
	drainDone    uint64 // cycle the store's cache write completes
}

// PC returns the instruction's code address.
func (u *UOp) PC() uint64 { return u.Dyn.PC }

// Seq returns the dynamic sequence number.
func (u *UOp) Seq() uint64 { return u.Dyn.Seq }

// Op returns the opcode.
func (u *UOp) Op() isa.Op { return u.Dyn.Static.Op }

// Committed reports whether the µop has committed.
func (u *UOp) Committed() bool { return u.committed }

// Ref returns the value-typed view handed to probes.
func (u *UOp) Ref() Ref { return Ref{Seq: u.Dyn.Seq, PC: u.Dyn.PC, PSV: u.PSV} }

// ready reports whether both source operands are available at cycle.
func (u *UOp) ready(cycle uint64) bool {
	return srcReady(u.src1, u.src1Gen, cycle) && srcReady(u.src2, u.src2Gen, cycle)
}

// srcReady checks one source dependency, as srcReadyAt does, in a form
// cheap enough that the issue loop inlines it.
func srcReady(p *UOp, gen uint32, cycle uint64) bool {
	return p == nil || p.gen != gen || (p.completed && p.CompleteCycle <= cycle)
}

// readyAt returns the first cycle both source operands are available;
// ok is false while a producer has not completed.
func (u *UOp) readyAt() (at uint64, ok bool) {
	at1, ok1 := srcReadyAt(u.src1, u.src1Gen)
	at2, ok2 := srcReadyAt(u.src2, u.src2Gen)
	return max(at1, at2), ok1 && ok2
}

// srcReadyAt checks one source dependency. A generation mismatch means
// the producer's storage was recycled after it committed, so the
// operand is architecturally ready.
func srcReadyAt(p *UOp, gen uint32) (uint64, bool) {
	if p == nil || p.gen != gen {
		return 0, true
	}
	return p.CompleteCycle, p.completed
}

// doneAt reports whether the µop has finished executing by cycle.
func (u *UOp) doneAt(cycle uint64) bool {
	return u.completed && u.CompleteCycle <= cycle
}

// rob is a fixed-capacity ring buffer of µops in program order.
type rob struct {
	buf   []*UOp
	head  int
	count int
}

func newROB(capacity int) *rob { return &rob{buf: make([]*UOp, capacity)} }

func (r *rob) empty() bool { return r.count == 0 }
func (r *rob) full() bool  { return r.count == len(r.buf) }
func (r *rob) len() int    { return r.count }

func (r *rob) push(u *UOp) {
	if r.full() {
		//tealint:ignore nakedpanic dispatch checks rob.full() first; overflow is a simulator bug, recovered at API boundaries
		panic("cpu: ROB overflow")
	}
	r.buf[(r.head+r.count)%len(r.buf)] = u
	r.count++
}

func (r *rob) headUOp() *UOp {
	if r.empty() {
		//tealint:ignore nakedpanic commit checks rob.empty() first; underflow is a simulator bug, recovered at API boundaries
		panic("cpu: ROB underflow")
	}
	return r.buf[r.head]
}

func (r *rob) pop() *UOp {
	u := r.headUOp()
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return u
}

// at returns the i'th oldest µop (0 = head).
func (r *rob) at(i int) *UOp { return r.buf[(r.head+i)%len(r.buf)] }

// squashYoungerThan removes every µop with a sequence number greater
// than seq from the tail, appending the removed µops (oldest first) to
// out; the caller passes a reusable scratch slice so squashes do not
// allocate.
func (r *rob) squashYoungerThan(seq uint64, out []*UOp) []*UOp {
	base := len(out)
	for r.count > 0 {
		tail := r.buf[(r.head+r.count-1)%len(r.buf)]
		if tail.Seq() <= seq {
			break
		}
		r.buf[(r.head+r.count-1)%len(r.buf)] = nil
		r.count--
		out = append(out, tail)
	}
	// Reverse the appended section to oldest-first.
	for i, j := base, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
