// Package profilers implements the performance-analysis approaches the
// paper compares TEA against: the instruction-driven front-end-tagging
// techniques (AMD IBS and Arm SPE tag at dispatch, IBM RIS tags at
// fetch), NCI-TEA (TEA's events with Intel PEBS' next-committing-
// instruction selection), TIP (time-proportional addresses without
// events), and event-driven PMC counting. All are cpu.Probes, so every
// technique samples the exact same cycles of the same execution — the
// paper's single-trace evaluation methodology.
package profilers

import (
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/pics"
)

// Technique names used across the evaluation.
const (
	NameTEA    = "TEA"
	NameNCITEA = "NCI-TEA"
	NameIBS    = "IBS"
	NameSPE    = "SPE"
	NameRIS    = "RIS"
	NameTIP    = "TIP"
	NameGolden = "golden"
)

// Profiler is the common interface of every technique: run as a probe,
// then produce a PICS profile.
type Profiler interface {
	cpu.Probe
	Profile() *pics.Profile
}

// ---------------------------------------------------------------------------
// Front-end tagging (IBS, SPE, RIS)

// TagPoint selects the pipeline stage at which a technique tags the
// instruction whose events it records.
type TagPoint uint8

const (
	// TagDispatch tags the next dispatched instruction (AMD IBS, Arm
	// SPE).
	TagDispatch TagPoint = iota
	// TagFetch tags the next fetched instruction (IBM RIS instruction
	// groups are formed in the fetch stage).
	TagFetch
)

// FrontEndTagger models IBS/SPE/RIS: at each sample point it arms the
// tagger; the next instruction passing the tag stage is tracked, and
// when it commits, the sample records its address and the events it
// was subjected to (restricted to the technique's event set). Tagged
// instructions that are squashed drop the sample, as real hardware
// does. Tagging in the front-end is exactly what makes these
// techniques non-time-proportional (Section 2).
type FrontEndTagger struct {
	cpu.BaseProbe
	name    string
	point   TagPoint
	set     events.Set
	sampler *core.Sampler

	armed   bool
	hasTag  bool
	tagged  uint64 // sequence number of the tagged instruction
	profile *pics.Profile

	Samples uint64
	Dropped uint64
}

// NewIBS models AMD Instruction-Based Sampling (dispatch tagging).
func NewIBS(interval, jitter, seed uint64) *FrontEndTagger {
	return newTagger(NameIBS, TagDispatch, events.IBSSet, interval, jitter, seed)
}

// NewSPE models the Arm Statistical Profiling Extension (dispatch
// tagging, SPE event set).
func NewSPE(interval, jitter, seed uint64) *FrontEndTagger {
	return newTagger(NameSPE, TagDispatch, events.SPESet, interval, jitter, seed)
}

// NewRIS models IBM Random Instruction Sampling (fetch tagging).
func NewRIS(interval, jitter, seed uint64) *FrontEndTagger {
	return newTagger(NameRIS, TagFetch, events.RISSet, interval, jitter, seed)
}

func newTagger(name string, point TagPoint, set events.Set, interval, jitter, seed uint64) *FrontEndTagger {
	prof := pics.NewProfile(name, set)
	prof.Seed = seed
	return &FrontEndTagger{
		name:    name,
		point:   point,
		set:     set,
		sampler: core.NewSeededSampler(interval, jitter, seed),
		profile: prof,
	}
}

// Profile returns the technique's PICS.
func (f *FrontEndTagger) Profile() *pics.Profile { return f.profile }

// Hooks implements cpu.HookUser: the tagger tags at its tag point and
// tracks the tagged instruction to its commit or squash.
func (f *FrontEndTagger) Hooks() cpu.Hooks {
	tag := cpu.HookDispatch
	if f.point == TagFetch {
		tag = cpu.HookFetch
	}
	return tag | cpu.HookCycle | cpu.HookCommit | cpu.HookSquash
}

// OnCycle arms the tagger at each sample point.
func (f *FrontEndTagger) OnCycle(ci *cpu.CycleInfo) {
	if f.sampler.Fires(ci.Cycle) {
		f.armed = true
	}
}

// OnCycles implements cpu.RunProbe: the tagger acts only at the run's
// sample points.
func (f *FrontEndTagger) OnCycles(ci *cpu.CycleInfo, n uint64) {
	f.sampler.OnFirings(ci, n, f.OnCycle)
}

// OnFetch tags at fetch for RIS. The tag is the sequence number: it is
// stable across hooks and a squash always drops the tag before the same
// sequence number is re-fetched, so matching is exact.
func (f *FrontEndTagger) OnFetch(r cpu.Ref, cycle uint64) {
	if f.point == TagFetch && f.armed && !f.hasTag {
		f.armed = false
		f.hasTag = true
		f.tagged = r.Seq
	}
}

// OnDispatch tags at dispatch for IBS/SPE.
func (f *FrontEndTagger) OnDispatch(r cpu.Ref, cycle uint64) {
	if f.point == TagDispatch && f.armed && !f.hasTag {
		f.armed = false
		f.hasTag = true
		f.tagged = r.Seq
	}
}

// OnCommit records the sample when the tagged instruction retires; its
// PSV is final here.
func (f *FrontEndTagger) OnCommit(r cpu.Ref, cycle uint64) {
	if f.hasTag && r.Seq == f.tagged {
		f.profile.Add(r.PC, r.PSV, float64(f.sampler.Interval()))
		f.Samples++
		f.hasTag = false
	}
}

// OnSquash drops the sample if the tagged instruction is squashed.
func (f *FrontEndTagger) OnSquash(r cpu.Ref, cycle uint64) {
	if f.hasTag && r.Seq == f.tagged {
		f.hasTag = false
		f.Dropped++
	}
}

// ---------------------------------------------------------------------------
// NCI-TEA

// NCITEA combines TEA's event set with the Next-Committing-Instruction
// selection policy of Intel PEBS: every sample — including those taken
// in the Flushed state — is attributed to the instruction that commits
// next. That misattributes flush cost to the instruction *after* the
// mispredicted branch or excepting instruction, which is exactly the
// inaccuracy Section 5.1 quantifies against TEA's last-committed
// selection.
type NCITEA struct {
	cpu.BaseProbe
	sampler *core.Sampler
	pending float64 // weight awaiting the next commit
	profile *pics.Profile
}

// NewNCITEA builds the NCI-TEA configuration.
func NewNCITEA(interval, jitter, seed uint64) *NCITEA {
	prof := pics.NewProfile(NameNCITEA, events.TEASet)
	prof.Seed = seed
	return &NCITEA{
		sampler: core.NewSeededSampler(interval, jitter, seed),
		profile: prof,
	}
}

// Profile returns the technique's PICS.
func (n *NCITEA) Profile() *pics.Profile { return n.profile }

// Hooks implements cpu.HookUser.
func (n *NCITEA) Hooks() cpu.Hooks { return cpu.HookCycle | cpu.HookCommit }

// OnCycle attributes Compute samples to the oldest committing µop and
// defers every other state to the next commit.
func (n *NCITEA) OnCycle(ci *cpu.CycleInfo) {
	if !n.sampler.Fires(ci.Cycle) {
		return
	}
	w := float64(n.sampler.Interval())
	if ci.State == events.Compute && len(ci.Committed) > 0 {
		r := ci.Committed[0]
		n.profile.Add(r.PC, r.PSV, w)
		return
	}
	// Stalled, Drained, and crucially also Flushed: next commit.
	n.pending += w
}

// OnCycles implements cpu.RunProbe: NCI-TEA acts only at the run's
// sample points.
func (n *NCITEA) OnCycles(ci *cpu.CycleInfo, k uint64) {
	n.sampler.OnFirings(ci, k, n.OnCycle)
}

// OnCommit resolves deferred samples.
func (n *NCITEA) OnCommit(r cpu.Ref, cycle uint64) {
	if n.pending != 0 {
		n.profile.Add(r.PC, r.PSV, n.pending)
		n.pending = 0
	}
}

// ---------------------------------------------------------------------------
// Event-driven counting (PMC-style)

// Counters is the event-driven approach of Section 5.3: it counts, per
// static instruction, how many dynamic executions were subjected to
// each performance event — the per-instruction view a PMC-based
// profiler provides. The Figure 7 study correlates these counts with
// the events' true impact from the golden reference.
type Counters struct {
	cpu.BaseProbe
	// Counts maps PC -> per-event dynamic occurrence counts.
	Counts map[uint64]*[events.NumEvents]uint64
}

// NewCounters builds the counting probe.
func NewCounters() *Counters {
	return &Counters{Counts: make(map[uint64]*[events.NumEvents]uint64)}
}

// Hooks implements cpu.HookUser.
func (c *Counters) Hooks() cpu.Hooks { return cpu.HookCommit }

// OnCommit counts the committed instruction's events.
func (c *Counters) OnCommit(r cpu.Ref, cycle uint64) {
	if r.PSV == 0 {
		return
	}
	arr := c.Counts[r.PC]
	if arr == nil {
		arr = new([events.NumEvents]uint64)
		c.Counts[r.PC] = arr
	}
	for _, e := range r.PSV.Events() {
		arr[e]++
	}
}

// EventCount returns the number of dynamic executions of pc subjected
// to event e.
func (c *Counters) EventCount(pc uint64, e events.Event) uint64 {
	if arr := c.Counts[pc]; arr != nil {
		return arr[e]
	}
	return 0
}

// ---------------------------------------------------------------------------
// Dynamic-execution event statistics

// EventStats measures the combined-event statistics of Section 5.2: of
// all dynamic executions subjected to at least one event, how many saw
// two or more (combined events)?
type EventStats struct {
	cpu.BaseProbe
	Total     uint64 // committed dynamic instructions
	WithEvent uint64 // subjected to >= 1 event
	Combined  uint64 // subjected to >= 2 events
}

// NewEventStats builds the probe.
func NewEventStats() *EventStats { return &EventStats{} }

// Hooks implements cpu.HookUser.
func (s *EventStats) Hooks() cpu.Hooks { return cpu.HookCommit }

// OnCommit classifies the committed instruction's signature.
func (s *EventStats) OnCommit(r cpu.Ref, cycle uint64) {
	s.Total++
	if r.PSV == 0 {
		return
	}
	s.WithEvent++
	if r.PSV.IsCombined() {
		s.Combined++
	}
}

// CombinedFraction returns the fraction of event-subjected executions
// that saw combined events (the paper reports 30.0%).
func (s *EventStats) CombinedFraction() float64 {
	if s.WithEvent == 0 {
		return 0
	}
	return float64(s.Combined) / float64(s.WithEvent)
}

// ---------------------------------------------------------------------------
// Unattributed-stall analysis

// StallProbe measures, for every committed instruction that stalled
// commit, how many cycles it stalled and whether TEA assigned it any
// event — the Section 3 analysis showing that 99% of event-free commit
// stalls are shorter than 5.8 cycles, i.e. TEA's nine events capture
// everything that can majorly impact performance.
type StallProbe struct {
	cpu.BaseProbe
	haveCur      bool
	currentSeq   uint64
	currentPSV   events.PSV
	currentStall uint64
	// EventFreeStalls collects stall durations of instructions with an
	// empty PSV; EventStalls those with at least one event.
	EventFreeStalls []float64
	EventStalls     []float64
}

// NewStallProbe builds the probe.
func NewStallProbe() *StallProbe { return &StallProbe{} }

// Hooks implements cpu.HookUser.
func (s *StallProbe) Hooks() cpu.Hooks { return cpu.HookCycle | cpu.HookCommit }

// OnCycle accumulates consecutive Stalled cycles per head µop.
func (s *StallProbe) OnCycle(ci *cpu.CycleInfo) { s.OnCycles(ci, 1) }

// OnCycles implements cpu.RunProbe: a run of n Stalled cycles adds n
// to the head's stall length.
func (s *StallProbe) OnCycles(ci *cpu.CycleInfo, n uint64) {
	if ci.State == events.Stalled {
		if !s.haveCur || s.currentSeq != ci.Head.Seq {
			s.flush()
			s.haveCur = true
			s.currentSeq = ci.Head.Seq
			s.currentPSV = 0
		}
		s.currentStall += n
		return
	}
	s.flush()
}

// OnCommit captures the stalled head's final signature: every stall run
// ends with its head committing (the head only leaves the ROB by
// commit), and OnCommit fires before the OnCycle that ends the run.
func (s *StallProbe) OnCommit(r cpu.Ref, cycle uint64) {
	if s.haveCur && r.Seq == s.currentSeq {
		s.currentPSV = r.PSV
	}
}

func (s *StallProbe) flush() {
	if !s.haveCur || s.currentStall == 0 {
		s.haveCur = false
		s.currentStall = 0
		return
	}
	if s.currentPSV == 0 {
		s.EventFreeStalls = append(s.EventFreeStalls, float64(s.currentStall))
	} else {
		s.EventStalls = append(s.EventStalls, float64(s.currentStall))
	}
	s.haveCur = false
	s.currentStall = 0
}

// OnDone flushes the trailing stall.
func (s *StallProbe) OnDone(total uint64) { s.flush() }
