package cpu

import "repro/internal/events"

// Ref is a value-typed view of one µop, handed to probes instead of the
// *UOp itself. The core recycles µop storage through a free list the
// moment a µop leaves the pipeline, so probes MUST NOT retain *UOp
// pointers — a retained pointer would silently start describing a
// different instruction. Everything a profiling technique needs is in
// the ref (or arrives in a later hook):
//
//   - Seq identifies the dynamic instruction. It is stable across
//     hooks, so techniques that tag an instruction in the front end
//     (IBS/SPE/RIS) match it at commit by sequence number. A squashed
//     sequence number is re-fetched after the squash; OnSquash always
//     fires before the re-fetch, so seq matching is exact.
//   - PC is the static instruction's code address.
//   - PSV is the signature observed so far. It is final — and part of
//     the trace-replay contract — only at OnCommit and in the
//     CycleInfo refs of committed/flushed instructions. At
//     OnFetch/OnDispatch (and for the stalled head in CycleInfo) it is
//     a live snapshot that offline replay does not reproduce; probes
//     must read event state at commit.
//
// The tealint proberetain analyzer enforces the no-retention rule:
// outside internal/cpu, no struct field or package variable may hold a
// *cpu.UOp.
type Ref struct {
	// Seq is the dynamic sequence number.
	Seq uint64
	// PC is the instruction's code address.
	PC uint64
	// PSV is the signature observed so far (final at commit).
	PSV events.PSV
}

// CycleInfo describes the commit-stage state of one cycle, following
// the four-state classification of Section 2 of the paper. The struct
// is reused across cycles; probes must not retain it or the Committed
// slice.
type CycleInfo struct {
	// Cycle is the cycle number (starting at 1).
	Cycle uint64
	// State is the commit-state classification.
	State events.CommitState
	// Committed lists the µops that committed this cycle (Compute), in
	// commit order; their PSVs are final.
	Committed []Ref
	// Head is the stalled ROB-head µop (Stalled). Its PSV is a live
	// snapshot (see Ref).
	Head Ref
	// LastCommitted is the flush-causing, already-committed µop
	// (Flushed); its PSV is final.
	LastCommitted Ref
}

// Probe observes the core cycle by cycle. All attached profiling
// techniques implement Probe, so they sample the exact same execution —
// the evaluation methodology of Section 4 (multiple configurations
// processed out-of-band from one trace). The same hooks fire, with the
// same values, when a recorded trace is replayed offline
// (internal/trace), so a probe cannot tell replay from a live run. A
// probe may declare the hooks it uses (HookUser) and take runs of
// identical cycles whole (RunProbe).
type Probe interface {
	// OnCycle fires once per cycle after the commit stage, unless the
	// probe takes the cycle as part of a run (RunProbe).
	OnCycle(ci *CycleInfo)
	// OnFetch fires when a µop is fetched (RIS tags here).
	OnFetch(r Ref, cycle uint64)
	// OnDispatch fires when a µop is dispatched (IBS/SPE tag here).
	OnDispatch(r Ref, cycle uint64)
	// OnCommit fires when a µop commits; its PSV is final.
	OnCommit(r Ref, cycle uint64)
	// OnSquash fires when an in-flight µop is squashed.
	OnSquash(r Ref, cycle uint64)
	// OnDone fires when the program finishes.
	OnDone(totalCycles uint64)
}

// BaseProbe is a no-op Probe for embedding; probes override only the
// hooks they need.
type BaseProbe struct{}

// OnCycle implements Probe.
func (BaseProbe) OnCycle(*CycleInfo) {}

// OnFetch implements Probe.
func (BaseProbe) OnFetch(Ref, uint64) {}

// OnDispatch implements Probe.
func (BaseProbe) OnDispatch(Ref, uint64) {}

// OnCommit implements Probe.
func (BaseProbe) OnCommit(Ref, uint64) {}

// OnSquash implements Probe.
func (BaseProbe) OnSquash(Ref, uint64) {}

// OnDone implements Probe.
func (BaseProbe) OnDone(uint64) {}

// RunProbe is implemented by a probe that takes a run of identical
// cycles in one call. OnCycles(ci, n) stands for the cycles ci.Cycle …
// ci.Cycle+n-1, all with ci's state and refs, and must leave the probe
// exactly as n OnCycle calls would. The core and the trace reader form
// runs only of Stalled, Drained and Flushed cycles; a Compute cycle
// always arrives alone.
type RunProbe interface {
	OnCycles(ci *CycleInfo, n uint64)
}

// Hooks is a set of probe hooks, for a probe to declare which ones it
// uses. OnDone is not in the set: every probe receives it.
type Hooks uint8

// The hooks a probe can declare.
const (
	HookFetch Hooks = 1 << iota
	HookDispatch
	HookCommit
	HookSquash
	HookCycle
	AllHooks = HookFetch | HookDispatch | HookCommit | HookSquash | HookCycle
)

// HookUser is implemented by a probe that uses only some hooks; the
// others are never called on it. A probe without it receives every
// hook.
type HookUser interface {
	Hooks() Hooks
}

// HookSet routes each hook to the probes that use it, in the order they
// were added; the zero value has no probe. The optional HookUser and
// RunProbe interfaces are resolved once, when a probe is added, never
// per call. The core keeps one for its attached probes, and the trace
// reader builds one per replay.
type HookSet struct {
	all                             []Probe
	fetch, dispatch, commit, squash []Probe
	cycle                           []Probe
	// runs[i] is cycle[i]'s run hook, or nil when it takes cycles one
	// at a time.
	runs []RunProbe
}

// Add appends p to the receivers of each hook it uses.
func (h *HookSet) Add(p Probe) {
	uses := AllHooks
	if u, ok := p.(HookUser); ok {
		uses = u.Hooks()
	}
	h.all = append(h.all, p)
	if uses&HookFetch != 0 {
		h.fetch = append(h.fetch, p)
	}
	if uses&HookDispatch != 0 {
		h.dispatch = append(h.dispatch, p)
	}
	if uses&HookCommit != 0 {
		h.commit = append(h.commit, p)
	}
	if uses&HookSquash != 0 {
		h.squash = append(h.squash, p)
	}
	if uses&HookCycle != 0 {
		rp, _ := p.(RunProbe)
		h.cycle = append(h.cycle, p)
		h.runs = append(h.runs, rp)
	}
}

// Fetch delivers OnFetch.
func (h *HookSet) Fetch(r Ref, cycle uint64) {
	for _, p := range h.fetch {
		p.OnFetch(r, cycle)
	}
}

// Dispatch delivers OnDispatch.
func (h *HookSet) Dispatch(r Ref, cycle uint64) {
	for _, p := range h.dispatch {
		p.OnDispatch(r, cycle)
	}
}

// Commit delivers OnCommit.
func (h *HookSet) Commit(r Ref, cycle uint64) {
	for _, p := range h.commit {
		p.OnCommit(r, cycle)
	}
}

// Squash delivers OnSquash.
func (h *HookSet) Squash(r Ref, cycle uint64) {
	for _, p := range h.squash {
		p.OnSquash(r, cycle)
	}
}

// Cycles delivers the run of n identical cycles starting at ci.Cycle:
// one OnCycles call to a probe that has it, n OnCycle calls with the
// cycle advancing to one that does not. ci is as it was on return.
func (h *HookSet) Cycles(ci *CycleInfo, n uint64) {
	for i, p := range h.cycle {
		switch {
		case n == 1:
			p.OnCycle(ci)
		case h.runs[i] != nil:
			h.runs[i].OnCycles(ci, n)
		default:
			EachCycle(ci, n, p.OnCycle)
		}
	}
}

// Done delivers OnDone to every probe.
func (h *HookSet) Done(totalCycles uint64) {
	for _, p := range h.all {
		p.OnDone(totalCycles)
	}
}

// EachCycle calls onCycle once per cycle of the run of n identical
// cycles starting at ci.Cycle, advancing ci.Cycle, and restores it. A
// run probe uses it for the cycles its run path does not shortcut.
func EachCycle(ci *CycleInfo, n uint64, onCycle func(*CycleInfo)) {
	start := ci.Cycle
	for k := uint64(0); k < n; k++ {
		ci.Cycle = start + k
		onCycle(ci)
	}
	ci.Cycle = start
}
