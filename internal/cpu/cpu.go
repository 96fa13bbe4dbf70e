package cpu

import (
	"context"
	"fmt"

	"repro/internal/branch"
	"repro/internal/emu"
	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/simerr"
)

const invalidLine = ^uint64(0)

// rasEntries is the return-address-stack depth.
const rasEntries = 16

// Stats aggregates core-level statistics for one run.
type Stats struct {
	Cycles      uint64
	Committed   uint64
	StateCycles [events.NumCommitStates]uint64
	Mispredicts uint64
	BTBMisses   uint64
	Violations  uint64
	Squashed    uint64
	Flushes     uint64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// CPU is the cycle-level out-of-order core.
type CPU struct {
	cfg    Config
	prog   *program.Program
	stream *emu.Stream
	hier   *mem.Hierarchy
	bp     *branch.Predictor
	hooks  HookSet

	cycle      uint64
	rob        *rob
	lastWriter [isa.NumRegs]*UOp

	iqInt, iqMem, iqFP []*UOp
	lq, sq             []*UOp
	drainQ             []*UOp // committed stores awaiting their cache write
	drainArr           []*UOp // drainQ's backing array (see refill)
	pendingLoads       []*UOp

	fetchBuf    []*UOp
	fetchArr    []*UOp // fetchBuf's backing array (see refill)
	fetchNext   *emu.Inst
	fetchResume uint64
	awaitBranch *UOp
	pendDRL1    bool
	pendDRTLB   bool
	lastLine    uint64
	streamDry   bool

	lastRef       Ref // last committed µop (final PSV)
	haveLast      bool
	flushActive   bool
	blockDispatch *UOp

	// freeUOps recycles µop storage: a µop returns to the pool the
	// moment it leaves the pipeline (commit for non-stores, SQ drain for
	// stores, squash otherwise). Probes therefore only ever see
	// value-typed Refs. squashScratch is reused across squashes.
	freeUOps      []*UOp
	squashScratch []*UOp

	// ras is the return-address stack: call sites push their return
	// index at fetch, returns pop their prediction. Squashes can leave
	// it stale (as in real front-ends), causing return mispredicts.
	ras []int
	// btb is a direct-mapped branch target buffer (tag per entry);
	// taken branches whose tag mismatches pay a resteer bubble.
	btb []uint64

	divBusyUntil  uint64
	fdivBusyUntil uint64

	// quietUntil is nextEvent's bound after a cycle in which no stage
	// acted: until that cycle only the commit stage runs. acted records
	// that a stage changed pipeline state in the current cycle.
	quietUntil uint64
	acted      bool

	info  CycleInfo
	Stats Stats

	// lastCommitCycle is the watchdog anchor: the most recent cycle an
	// instruction committed (0 before the first commit).
	lastCommitCycle uint64
	// err latches the typed failure that stopped the run; Step returns
	// false forever once it is set.
	err *simerr.Error
	// SampleOverheadCycles, when nonzero, stalls the whole pipeline for
	// that many cycles each time a probe requests an interrupt — the
	// mechanism behind the sampling performance-overhead measurement.
	SampleOverheadCycles uint64
	pendingOverhead      uint64
}

// New builds a core for the given program with a private memory system.
// A zero guard limit in cfg (MaxCycles, WatchdogCommitCycles) selects
// its package default.
func New(cfg Config, p *program.Program) *CPU {
	return NewWithHierarchy(cfg, p, mem.NewHierarchy(cfg.Mem))
}

// NewWithHierarchy builds a core over an existing memory system —
// multi-core systems pass per-core hierarchies that share an LLC and
// DRAM (mem.NewHierarchyShared).
func NewWithHierarchy(cfg Config, p *program.Program, h *mem.Hierarchy) *CPU {
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = DefaultMaxCycles
	}
	if cfg.WatchdogCommitCycles == 0 {
		cfg.WatchdogCommitCycles = DefaultWatchdogCommitCycles
	}
	return &CPU{
		cfg:      cfg,
		prog:     p,
		stream:   emu.NewStream(p),
		hier:     h,
		bp:       branch.New(cfg.BP),
		rob:      newROB(cfg.ROBEntries),
		fetchArr: make([]*UOp, cfg.FetchBufEntries+cfg.FetchWidth),
		drainArr: make([]*UOp, cfg.SQEntries),
		lastLine: invalidLine,
	}
}

// Default guard thresholds. The longest legitimate commit gap on the
// Table 2 core is a few hundred cycles (a DRAM-latency stall plus queue
// drain); the watchdog default leaves three orders of magnitude of
// headroom, so it only trips on genuine livelock.
const (
	DefaultMaxCycles            = 2_000_000_000
	DefaultWatchdogCommitCycles = 1_000_000
)

// Attach registers a probe. All probes observe the same execution.
func (c *CPU) Attach(p Probe) { c.hooks.Add(p) }

// Hierarchy exposes the memory system (for statistics).
func (c *CPU) Hierarchy() *mem.Hierarchy { return c.hier }

// Predictor exposes the branch predictor (for statistics).
func (c *CPU) Predictor() *branch.Predictor { return c.bp }

// Config returns the core configuration.
func (c *CPU) Config() Config { return c.cfg }

// Cycle returns the current cycle number.
func (c *CPU) Cycle() uint64 { return c.cycle }

// RequestSampleOverhead charges the configured per-sample interrupt
// cost to the pipeline; sampling probes call it when they deliver a
// sample to software.
func (c *CPU) RequestSampleOverhead() {
	c.pendingOverhead += c.SampleOverheadCycles
}

// Step advances the core by one cycle and reports whether it is still
// running. Multi-core systems interleave Step calls across cores that
// share a memory system; single-core callers use Run or RunContext.
// When a guard trips (runaway cycle budget, commit watchdog), Step
// latches a typed error — visible via Failure/Err — and returns false.
func (c *CPU) Step() bool { return c.step(false) }

// step advances the core by one cycle, or with runs set by a whole
// quiet run (see quietRun), delivered to the probes in one call.
func (c *CPU) step(runs bool) bool {
	if c.err != nil || c.done() {
		return false
	}
	c.cycle++
	if c.cycle > c.cfg.MaxCycles {
		c.err = simerr.New(simerr.ErrRunaway, c.snapshot(),
			"program %q exceeded %d cycles", c.prog.Name, c.cfg.MaxCycles)
		return false
	}
	if c.cycle-c.lastCommitCycle > c.cfg.WatchdogCommitCycles {
		c.err = simerr.New(simerr.ErrDeadlock, c.snapshot(),
			"program %q committed nothing for %d cycles", c.prog.Name, c.cfg.WatchdogCommitCycles)
		return false
	}
	if c.pendingOverhead > 0 {
		// The sampling interrupt handler occupies the core; the
		// pipeline makes no progress but the clock advances.
		c.pendingOverhead--
		c.Stats.Cycles++
		return true
	}
	c.commitStage()
	if c.cycle < c.quietUntil && len(c.info.Committed) == 0 {
		// A quiet cycle: the pipeline is frozen and no stage but commit
		// can act before quietUntil, so only commit runs and every probe
		// still sees this cycle, alone or, with runs, as the first of a
		// quiet run.
		n := uint64(1)
		if runs {
			n = c.quietRun()
		}
		c.Stats.StateCycles[c.info.State] += n
		c.hooks.Cycles(&c.info, n)
		c.cycle += n - 1
		c.Stats.Cycles += n
		return true
	}
	c.Stats.StateCycles[c.info.State]++
	c.hooks.Cycles(&c.info, 1)
	c.acted = len(c.info.Committed) > 0
	c.executeStage()
	c.issueStage()
	c.dispatchStage()
	c.fetchStage()
	c.quietUntil = 0
	if !c.acted {
		c.quietUntil = c.nextEvent()
	}
	c.Stats.Cycles++
	return true
}

// quietRun returns how many cycles, from this quiet cycle on, repeat
// its commit state and refs exactly. The run ends at the first cycle
// that could differ: quietUntil, from which other stages may act; the
// cycle the ROB head completes, when it commits; or the cycle at which
// MaxCycles or the commit watchdog trips, so that each guard trips at
// the cycle, and with the snapshot, that stepping one cycle at a time
// gives. A head that has not completed completes only when a stage
// acts, so not before quietUntil.
func (c *CPU) quietRun() uint64 {
	end := c.quietUntil
	if !c.rob.empty() {
		if h := c.rob.headUOp(); h.completed {
			end = min(end, h.CompleteCycle)
		}
	}
	if c.cfg.MaxCycles < end-1 {
		end = c.cfg.MaxCycles + 1
	}
	if w := c.cfg.WatchdogCommitCycles; w < end-1-c.lastCommitCycle {
		end = c.lastCommitCycle + w + 1
	}
	return end - c.cycle
}

// nextEvent returns the first cycle after this one at which a stage
// other than commit can act, given that none acted this cycle. The
// pipeline state is then frozen until some stage acts, and a stage's
// decision can change only when a timer it compares the cycle against
// expires, so the bound is the earliest such timer; any condition that
// waits on no timer returns the next cycle. Commit needs no bound:
// commitStage runs every cycle, and a cycle that commits runs every
// stage.
func (c *CPU) nextEvent() uint64 {
	next := c.cycle + 1
	at := ^uint64(0)
	// Fetch: a mispredicted branch resolves, or the front end restarts.
	if br := c.awaitBranch; br != nil {
		if br.completed {
			at = min(at, br.CompleteCycle)
		}
	} else if !c.streamDry && len(c.fetchBuf) < c.cfg.FetchBufEntries {
		at = min(at, c.fetchResume)
	}
	// Dispatch: the fetch buffer's head leaves the front end, then waits
	// for a queue entry; a full store queue frees when a drain ends.
	if c.blockDispatch == nil && len(c.fetchBuf) > 0 && !c.rob.full() {
		u := c.fetchBuf[0]
		switch op := u.Op(); {
		case u.FetchCycle+c.cfg.FrontEndDepth > next:
			at = min(at, u.FetchCycle+c.cfg.FrontEndDepth)
		case isa.IsSerializing(op):
			if c.rob.empty() {
				return next
			}
		case c.queueFull(op):
		case !isa.IsStore(op) || !u.PSV.Has(events.DRSQ) || len(c.sq) < c.cfg.SQEntries:
			return next
		default:
			for _, st := range c.sq {
				if st.committed && st.drainStarted {
					at = min(at, st.drainDone)
				}
			}
		}
	}
	// Issue: a waiting µop's producers complete and its unit frees.
	for _, iq := range [...][]*UOp{c.iqInt, c.iqMem, c.iqFP} {
		for _, u := range iq {
			if t, ok := u.readyAt(); ok {
				at = min(at, max(t, c.unitFreeAt(u)))
			}
		}
	}
	// Execute: address generation, translation, then the L1D's MSHRs. A
	// load in the default case, like the drain queue's head, tried the
	// L1D this cycle and was rejected; it kept the cycle the rejection
	// reported an MSHR frees.
	for _, st := range c.sq {
		if st.issued && !st.completed {
			at = min(at, st.aguDone)
		}
	}
	for _, ld := range c.pendingLoads {
		switch {
		case ld.squashed:
		case !ld.translated:
			at = min(at, ld.aguDone)
		case ld.tlbDone > c.cycle:
			at = min(at, ld.tlbDone)
		case ld.Op() == isa.OpPrefetch, c.forwarder(ld, next) != nil:
			// A prefetch waits on LLC MSHRs, which another core
			// sharing the LLC can free on any cycle.
			return next
		default:
			at = min(at, ld.retryAt)
		}
	}
	if len(c.drainQ) > 0 {
		at = min(at, c.drainQ[0].retryAt)
	}
	return max(at, next)
}

// Finish fires the probes' completion hooks; call it exactly once after
// the last Step. Run does this automatically.
func (c *CPU) Finish() { c.hooks.Done(c.Stats.Cycles) }

// Run simulates the program to completion and returns the statistics.
// A guard failure (runaway, deadlock) panics with the typed
// *simerr.Error; public API boundaries (analysis.RunProgramContext,
// the CLIs) recover it. Callers that want the error instead use
// RunContext.
//
//tealint:ctxroot uncancellable convenience entry point: callers with a context use RunContext
func (c *CPU) Run() *Stats {
	stats, err := c.RunContext(context.Background())
	if err != nil {
		//tealint:ignore nakedpanic panic value is the typed *simerr.Error, recovered at API boundaries
		panic(err)
	}
	return stats
}

// RunContext simulates the program to completion, honoring ctx
// cancellation and deadlines, and returns the statistics. Unless
// SampleOverheadCycles is set, each quiet run advances in one step and
// reaches the probes as one run (see quietRun and RunProbe), so a
// sampling interrupt can never fall inside a run. On failure —
// cancellation (simerr.ErrCanceled wrapping ctx.Err()), a runaway
// program (simerr.ErrRunaway), or a commit-stage deadlock
// (simerr.ErrDeadlock with a pipeline-state dump) — the probes'
// completion hooks never fire, so no partial profile can be observed
// downstream.
func (c *CPU) RunContext(ctx context.Context) (*Stats, error) {
	// The context is polled every ctxCheckInterval steps: rarely enough
	// to stay off the hot path, often enough (microseconds of wall
	// clock) that cancellation is prompt.
	const ctxCheckInterval = 4096
	for steps := 0; ; steps++ {
		if steps%ctxCheckInterval == 0 {
			if cause := context.Cause(ctx); cause != nil {
				c.err = simerr.Wrap(simerr.ErrCanceled, c.snapshot(), cause, "run canceled")
				return &c.Stats, c.err
			}
		}
		if !c.step(c.SampleOverheadCycles == 0) {
			break
		}
	}
	if c.err != nil {
		return &c.Stats, c.err
	}
	c.Finish()
	return &c.Stats, nil
}

// Failure returns the typed error that stopped the run, or nil. (A
// typed accessor rather than error so callers can panic with it at
// invariant boundaries without losing the type.)
func (c *CPU) Failure() *simerr.Error { return c.err }

// Err returns the failure as a plain error (nil when the run is
// healthy), for errors.Is/errors.As call sites.
func (c *CPU) Err() error {
	if c.err == nil {
		return nil
	}
	return c.err
}

// snapshot captures the diagnostic state attached to guard failures.
func (c *CPU) snapshot() simerr.Snapshot {
	s := simerr.Snapshot{Program: c.prog.Name, Cycle: c.cycle}
	if c.haveLast {
		s.PC = c.lastRef.PC
		s.Seq = c.lastRef.Seq
	}
	s.Detail = c.pipelineDump()
	return s
}

// pipelineDump renders the pipeline state for deadlock/runaway
// diagnostics: where every in-flight structure stood when the guard
// tripped.
func (c *CPU) pipelineDump() string {
	d := fmt.Sprintf("rob %d/%d", c.rob.len(), c.cfg.ROBEntries)
	if !c.rob.empty() {
		h := c.rob.headUOp()
		d += fmt.Sprintf(" head{seq %d pc %#x op %v dispatched %v issued %v completed %v}",
			h.Seq(), h.PC(), h.Op(), h.dispatched, h.issued, h.completed)
	}
	d += fmt.Sprintf("; iq int/mem/fp %d/%d/%d; lq %d sq %d drain %d; fetchBuf %d",
		len(c.iqInt), len(c.iqMem), len(c.iqFP), len(c.lq), len(c.sq), len(c.drainQ), len(c.fetchBuf))
	d += fmt.Sprintf("; fetchResume %d streamDry %v awaitBranch %v blockDispatch %v lastCommit cycle %d",
		c.fetchResume, c.streamDry, c.awaitBranch != nil, c.blockDispatch != nil, c.lastCommitCycle)
	return d
}

func (c *CPU) done() bool {
	return c.streamDry && c.fetchNext == nil && len(c.fetchBuf) == 0 && c.rob.empty()
}

// ---------------------------------------------------------------------------
// Commit stage

func (c *CPU) commitStage() {
	ci := &c.info
	ci.Cycle = c.cycle
	ci.Committed = ci.Committed[:0]
	ci.Head = Ref{}
	ci.LastCommitted = Ref{}

	switch {
	case c.rob.empty():
		if c.flushActive && c.haveLast {
			ci.State = events.Flushed
			ci.LastCommitted = c.lastRef
		} else {
			ci.State = events.Drained
		}
	default:
		head := c.rob.headUOp()
		if !head.doneAt(c.cycle) {
			ci.State = events.Stalled
			ci.Head = head.Ref()
		} else {
			ci.State = events.Compute
			for len(ci.Committed) < c.cfg.CommitWidth && !c.rob.empty() {
				u := c.rob.headUOp()
				if !u.doneAt(c.cycle) {
					break
				}
				c.rob.pop()
				c.commitUOp(u)
				ci.Committed = append(ci.Committed, u.Ref())
				if u.PSV.Has(events.FLMB) || u.PSV.Has(events.FLEX) || u.PSV.Has(events.FLMO) {
					c.flushActive = true
					c.Stats.Flushes++
				}
				ser := isa.IsSerializing(u.Op())
				if ser {
					// The pipeline flush of a serializing CSR access (the
					// nab case study's fsflags/frflags): it dispatched
					// alone into an empty ROB and blocked dispatch, so
					// everything younger is still in the fetch buffer.
					c.squashYoungerThan(u)
				}
				// Stores stay live in the SQ until their post-commit
				// cache write finishes; everything else recycles now.
				if !isa.IsStore(u.Op()) {
					c.retireUOp(u)
				}
				if ser {
					break
				}
			}
		}
	}
}

func (c *CPU) commitUOp(u *UOp) {
	u.committed = true
	u.CommitCycle = c.cycle
	c.lastCommitCycle = c.cycle
	c.lastRef = u.Ref()
	c.haveLast = true
	c.Stats.Committed++
	if isa.IsStore(u.Op()) {
		c.drainQ = append(refill(c.drainQ, c.drainArr, 1), u)
	} else if isa.IsLoad(u.Op()) || u.Op() == isa.OpPrefetch {
		c.lq = removeUOp(c.lq, u)
	}
	if c.blockDispatch == u {
		c.blockDispatch = nil
	}
	c.stream.Release(u.Seq() + 1)
	c.hooks.Commit(c.lastRef, c.cycle)
}

// retireUOp recycles a committed non-store µop's storage the cycle it
// commits. Its dynamic record was already released from the stream
// buffer, so both the µop shell and the record return to their pools.
func (c *CPU) retireUOp(u *UOp) {
	if d := u.Dyn.Static.Dests(); d != isa.NoReg && d != isa.RegZero && c.lastWriter[d] == u {
		// Equivalent to leaving the pointer: a committed producer always
		// reads as ready, so consumers wired to nil see the same thing.
		c.lastWriter[d] = nil
	}
	if c.awaitBranch == u {
		// fetchStage would resolve the redirect later this same cycle
		// (the branch is provably done); do it here before the storage
		// is recycled.
		c.redirect(u)
	}
	c.stream.RecycleInst(u.Dyn)
	c.freeUOp(u)
}

// allocUOp takes a µop shell from the free list (or allocates one) and
// resets it, preserving the generation counter that guards stale
// dependency pointers.
func (c *CPU) allocUOp(d *emu.Inst) *UOp {
	if n := len(c.freeUOps); n > 0 {
		u := c.freeUOps[n-1]
		c.freeUOps = c.freeUOps[:n-1]
		gen := u.gen
		*u = UOp{Dyn: d, FetchCycle: c.cycle, valueFromSeq: -1, gen: gen}
		return u
	}
	return &UOp{Dyn: d, FetchCycle: c.cycle, valueFromSeq: -1}
}

// freeUOp returns a µop shell to the pool. Bumping the generation here
// makes any pointer still wired to this shell read as "producer
// recycled" immediately, before the storage is reused.
func (c *CPU) freeUOp(u *UOp) {
	u.gen++
	u.Dyn = nil
	c.freeUOps = append(c.freeUOps, u)
}

// redirect restarts fetch after the mispredicted branch br resolves:
// the front end refills for the redirect penalty.
func (c *CPU) redirect(br *UOp) {
	c.fetchResume = br.CompleteCycle + c.cfg.RedirectPenalty
	c.awaitBranch = nil
	c.lastLine = invalidLine
}

// ---------------------------------------------------------------------------
// Execute stage: the load/store unit state machines live in lsu.go.

func (c *CPU) executeStage() {
	c.executeStores()
	c.executeLoads()
	c.drainStores()
}

// ---------------------------------------------------------------------------
// Issue stage

func (c *CPU) issueStage() {
	c.iqInt = c.issueFrom(c.iqInt, c.cfg.IntIssueWidth)
	c.iqMem = c.issueFrom(c.iqMem, c.cfg.MemIssueWidth)
	c.iqFP = c.issueFrom(c.iqFP, c.cfg.FPIssueWidth)
}

func (c *CPU) issueFrom(iq []*UOp, width int) []*UOp {
	issued := 0
	out := iq[:0]
	for _, u := range iq {
		if issued >= width || !u.ready(c.cycle) || c.unitFreeAt(u) > c.cycle {
			out = append(out, u)
			continue
		}
		c.issueUOp(u)
		issued++
	}
	return out
}

// unpipelined returns the busy-until cycle of the unpipelined unit op
// holds for its whole latency (the integer or the floating-point
// divider) for issue to read and set, or nil when op's unit is
// pipelined.
func (c *CPU) unpipelined(op isa.Op) *uint64 {
	switch op {
	case isa.OpDiv, isa.OpRem:
		return &c.divBusyUntil
	case isa.OpFDiv, isa.OpFSqrt:
		return &c.fdivBusyUntil
	}
	return nil
}

// unitFreeAt returns the first cycle u's functional unit accepts a new
// operation.
func (c *CPU) unitFreeAt(u *UOp) uint64 {
	if busy := c.unpipelined(u.Op()); busy != nil {
		return *busy
	}
	return 0
}

func (c *CPU) issueUOp(u *UOp) {
	c.acted = true
	u.issued = true
	u.IssueCycle = c.cycle
	op := u.Op()
	switch isa.ClassOf(op) {
	case isa.ClassLoad, isa.ClassStore:
		u.aguDone = c.cycle + 1
		if isa.ClassOf(op) == isa.ClassLoad {
			c.pendingLoads = append(c.pendingLoads, u)
		}
	default:
		lat := c.cfg.Latency(op)
		u.completed = true
		u.CompleteCycle = c.cycle + lat
		if busy := c.unpipelined(op); busy != nil {
			*busy = u.CompleteCycle
		}
	}
}

// ---------------------------------------------------------------------------
// Dispatch stage

func (c *CPU) dispatchStage() {
	if c.blockDispatch != nil {
		return
	}
	for n := 0; n < c.cfg.DecodeWidth; n++ {
		if len(c.fetchBuf) == 0 || c.rob.full() {
			return
		}
		u := c.fetchBuf[0]
		if c.cycle < u.FetchCycle+c.cfg.FrontEndDepth {
			return
		}
		op := u.Op()

		if isa.IsSerializing(op) {
			// Serializing µops dispatch alone: wait for the ROB to
			// drain, then block dispatch until they commit.
			if !c.rob.empty() {
				return
			}
			u.PSV = u.PSV.Set(events.FLEX)
			u.completed = true
			u.CompleteCycle = c.cycle + 1
			c.enterROB(u)
			c.blockDispatch = u
			return
		}

		if c.queueFull(op) {
			return
		}
		switch {
		case isa.ClassOf(op) == isa.ClassSystem, op == isa.OpNop: // halt, nop
			u.completed = true
			u.CompleteCycle = c.cycle + 1
		case isa.IsStore(op):
			if c.sqOccupancy() >= c.cfg.SQEntries {
				// The Drained commit state this causes is explained by
				// the DR-SQ event on the blocked store (Table 1).
				u.PSV = u.PSV.Set(events.DRSQ)
				return
			}
		}

		c.wireSources(u)
		c.enterROB(u)
		switch isa.ClassOf(op) {
		case isa.ClassALU, isa.ClassMulDiv, isa.ClassBranch:
			if op != isa.OpNop {
				c.iqInt = append(c.iqInt, u)
			}
		case isa.ClassFP, isa.ClassFPDiv:
			c.iqFP = append(c.iqFP, u)
		case isa.ClassLoad:
			c.iqMem = append(c.iqMem, u)
			c.lq = append(c.lq, u)
		case isa.ClassStore:
			c.iqMem = append(c.iqMem, u)
			c.sq = append(c.sq, u)
		}
	}
}

// queueFull reports whether op's issue queue, or for a load the load
// queue, has no free entry; nops and halts take no queue entry. The
// store queue frees lazily, so dispatch checks it on its own.
func (c *CPU) queueFull(op isa.Op) bool {
	switch isa.ClassOf(op) {
	case isa.ClassALU, isa.ClassMulDiv, isa.ClassBranch:
		return op != isa.OpNop && len(c.iqInt) >= c.cfg.IntIQEntries
	case isa.ClassFP, isa.ClassFPDiv:
		return len(c.iqFP) >= c.cfg.FPIQEntries
	case isa.ClassLoad:
		return len(c.iqMem) >= c.cfg.MemIQEntries || c.lqOccupancy() >= c.cfg.LQEntries
	case isa.ClassStore:
		return len(c.iqMem) >= c.cfg.MemIQEntries
	}
	return false
}

func (c *CPU) wireSources(u *UOp) {
	s1, s2 := u.Dyn.Static.Sources()
	if s1 != isa.NoReg && s1 != isa.RegZero {
		if p := c.lastWriter[s1]; p != nil {
			u.src1, u.src1Gen = p, p.gen
		}
	}
	if s2 != isa.NoReg && s2 != isa.RegZero {
		if p := c.lastWriter[s2]; p != nil {
			u.src2, u.src2Gen = p, p.gen
		}
	}
}

func (c *CPU) enterROB(u *UOp) {
	c.acted = true
	u.dispatched = true
	u.DispatchCycle = c.cycle
	c.rob.push(u)
	c.fetchBuf = c.fetchBuf[1:]
	if d := u.Dyn.Static.Dests(); d != isa.NoReg && d != isa.RegZero {
		c.lastWriter[d] = u
	}
	c.flushActive = false
	c.hooks.Dispatch(u.Ref(), c.cycle)
}

// lqOccupancy counts live load-queue entries.
func (c *CPU) lqOccupancy() int { return len(c.lq) }

// sqOccupancy counts store-queue entries, lazily freeing stores whose
// post-commit cache write has finished (retired stores).
func (c *CPU) sqOccupancy() int {
	out := c.sq[:0]
	for _, st := range c.sq {
		if st.committed && st.drainStarted && st.drainDone <= c.cycle {
			// The SQ entry was the store's last pipeline reference (it
			// left the drain queue when the cache write started), so its
			// storage recycles here.
			c.acted = true
			c.stream.RecycleInst(st.Dyn)
			c.freeUOp(st)
			continue
		}
		out = append(out, st)
	}
	c.sq = out
	return len(c.sq)
}

// refill makes room for n more entries at the back of q, a FIFO that
// pops from the front by reslicing: when fewer than n are free behind
// it, q moves to the front of its backing array arr. A FIFO that never
// holds more than len(arr)-n entries thus never reallocates, which
// keeps the cycle loop allocation-free.
func refill(q, arr []*UOp, n int) []*UOp {
	if cap(q)-len(q) < n {
		return append(arr[:0], q...)
	}
	return q
}

// ---------------------------------------------------------------------------
// Fetch stage

func (c *CPU) fetchStage() {
	if c.awaitBranch != nil {
		br := c.awaitBranch
		if !br.doneAt(c.cycle) {
			return
		}
		c.redirect(br)
		c.acted = true
	}
	if c.cycle < c.fetchResume {
		return
	}
	hitLat := c.cfg.Mem.L1I.HitLatency
	l1i := c.hier.L1I()
	budget := c.cfg.FetchWidth
	c.fetchBuf = refill(c.fetchBuf, c.fetchArr, budget)
	for budget > 0 && len(c.fetchBuf) < c.cfg.FetchBufEntries {
		if c.fetchNext == nil {
			c.fetchNext = c.stream.Next()
			if c.fetchNext == nil {
				c.streamDry = true
				return
			}
		}
		// From here the stream has delivered d, which is either fetched
		// or starts a line access.
		c.acted = true
		d := c.fetchNext
		if line := l1i.BlockOf(d.PC); line != c.lastLine {
			res := c.hier.Fetch(d.PC, c.cycle)
			c.lastLine = line
			if res.L1Miss {
				c.pendDRL1 = true
			}
			if res.TLBMiss {
				c.pendDRTLB = true
			}
			if res.Done > c.cycle+hitLat {
				// Front-end stall: the instruction is fetched when the
				// line (and translation) arrive.
				c.fetchResume = res.Done
				return
			}
		}

		u := c.allocUOp(d)
		if c.pendDRL1 {
			u.PSV = u.PSV.Set(events.DRL1)
			c.pendDRL1 = false
		}
		if c.pendDRTLB {
			u.PSV = u.PSV.Set(events.DRTLB)
			c.pendDRTLB = false
		}
		switch {
		case isa.IsCondBranch(u.Op()):
			pred, prov := c.bp.Predict(d.PC)
			c.bp.Update(d.PC, prov, pred, d.Taken)
			if pred != d.Taken {
				u.Mispredicted = true
				u.PSV = u.PSV.Set(events.FLMB)
				c.Stats.Mispredicts++
			}
		case u.Op() == isa.OpCall:
			// Push the return index; a bounded stack drops the oldest
			// entry on overflow (deep recursion then mispredicts).
			if len(c.ras) >= rasEntries {
				copy(c.ras, c.ras[1:])
				c.ras = c.ras[:rasEntries-1]
			}
			c.ras = append(c.ras, d.Index+1)
		case u.Op() == isa.OpRet:
			predicted := -1
			if n := len(c.ras); n > 0 {
				predicted = c.ras[n-1]
				c.ras = c.ras[:n-1]
			}
			if predicted != d.NextIndex {
				u.Mispredicted = true
				u.PSV = u.PSV.Set(events.FLMB)
				c.Stats.Mispredicts++
			}
		}
		c.fetchNext = nil
		c.fetchBuf = append(c.fetchBuf, u)
		budget--
		c.hooks.Fetch(u.Ref(), c.cycle)
		if u.Mispredicted {
			// Wrong path: fetch stalls until the branch resolves and
			// the front-end redirects.
			c.awaitBranch = u
			return
		}
		if u.Dyn.IsBranch() && u.Dyn.Taken {
			// Taken branches end the fetch packet. A correctly
			// predicted taken branch still needs its target from the
			// BTB; a tag miss costs a short resteer bubble while the
			// decoder computes the target (returns come from the RAS).
			c.lastLine = invalidLine
			if u.Op() != isa.OpRet && c.cfg.BTBEntries > 0 {
				if c.btb == nil {
					c.btb = make([]uint64, c.cfg.BTBEntries)
				}
				idx := (d.PC >> 2) % uint64(len(c.btb))
				if c.btb[idx] != d.PC {
					c.btb[idx] = d.PC
					c.fetchResume = c.cycle + c.cfg.BTBMissPenalty
					c.Stats.BTBMisses++
				}
			}
			return
		}
	}
}

func removeUOp(list []*UOp, u *UOp) []*UOp {
	out := list[:0]
	for _, x := range list {
		if x != u {
			out = append(out, x)
		}
	}
	return out
}
