// Package core implements Time-Proportional Event Analysis (TEA), the
// paper's contribution: a hardware sampling unit that, at each sample
// point, classifies the commit stage into one of four states, selects
// the instruction(s) whose latency the core is exposing, and captures
// their Performance Signature Vectors. Post-processing the samples
// yields time-proportional Per-Instruction Cycle Stacks (PICS).
//
// The package also provides the storage/power/performance overhead
// models of Section 3.
package core

import (
	"math/rand/v2"

	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/pics"
	"repro/internal/program"
	"repro/internal/simerr"
)

// SampledInst is one (instruction pointer, PSV) pair within a sample.
type SampledInst struct {
	PC  uint64
	PSV events.PSV
}

// Sample is what the TEA PMU delivers to the sampling software: a
// timestamp, the commit state, and the selected instruction(s) with
// their signature vectors (up to commit width in the Compute state).
type Sample struct {
	Cycle  uint64
	State  events.CommitState
	Insts  []SampledInst
	Weight float64 // cycles this sample represents
}

// Sampler generates sample points from a cycle counter. A small
// deterministic jitter decorrelates the sample clock from loop periods,
// as statistical profilers do to avoid aliasing.
type Sampler struct {
	interval uint64
	jitter   uint64
	next     uint64
	rng      *rand.Rand
}

// NewSeededSampler returns a sampler firing roughly every interval
// cycles. jitter is the half-width of the uniform perturbation (0
// disables it; it must not exceed interval), drawn from a PCG stream
// derived from seed. Every sampler in the tree derives its randomness
// from an explicit seed (never the package-global math/rand/v2 state,
// which the tealint randsource analyzer forbids), so identical traces
// plus an identical seed produce identical PICS.
func NewSeededSampler(interval, jitter, seed uint64) *Sampler {
	// Both are user-reachable through configuration; typed for
	// boundary recovery (simerr.ErrInvalidConfig).
	if interval == 0 {
		panic(simerr.New(simerr.ErrInvalidConfig, simerr.Snapshot{},
			"core: sampling interval must be positive"))
	}
	if jitter > interval {
		// A wider perturbation can pull the next sample point below
		// zero, wrapping the clock so the sampler never fires again.
		panic(simerr.New(simerr.ErrInvalidConfig, simerr.Snapshot{},
			"core: sampling jitter %d exceeds the interval %d", jitter, interval))
	}
	s := &Sampler{
		interval: interval,
		jitter:   jitter,
		rng:      rand.New(rand.NewPCG(seed, 0x7EA)),
	}
	s.next = s.interval
	return s
}

// Fires reports whether a sample point is due at cycle and advances the
// sample clock when it is.
func (s *Sampler) Fires(cycle uint64) bool {
	if cycle < s.next {
		return false
	}
	next := s.next + s.interval
	if s.jitter > 0 {
		next = next - s.jitter + uint64(s.rng.Uint64N(2*s.jitter+1))
	}
	if next <= cycle {
		// The clock fell behind (overdue consultation): re-anchor one
		// full interval ahead rather than firing again immediately.
		next = cycle + s.interval
	}
	s.next = next
	return true
}

// Interval returns the nominal sampling interval in cycles.
func (s *Sampler) Interval() uint64 { return s.interval }

// Next returns the cycle the sample clock fires at: Fires reports true
// for the first cycle at or after it.
func (s *Sampler) Next() uint64 { return s.next }

// OnFirings delivers a run of n identical cycles from ci.Cycle on to a
// per-cycle hook that does nothing unless s fires. It calls onCycle, at
// ci.Cycle set to each cycle of the run at which s fires, and skips the
// others, so Fires runs at each firing cycle and draws the same jitter
// n per-cycle calls would; a run longer than an interval fires more
// than once. onCycle must consult s.Fires; ci.Cycle is restored.
func (s *Sampler) OnFirings(ci *cpu.CycleInfo, n uint64, onCycle func(*cpu.CycleInfo)) {
	start, end := ci.Cycle, ci.Cycle+n
	for c := max(start, s.Next()); c < end; c = max(c+1, s.Next()) {
		ci.Cycle = c
		onCycle(ci)
	}
	ci.Cycle = start
}

// Config configures a TEA unit.
type Config struct {
	// IntervalCycles is the nominal sampling period. The paper samples
	// at 4 KHz on a 3.2 GHz core (once every 800,000 cycles); simulated
	// runs are shorter, so the default interval is scaled down to keep
	// the per-run sample count in the same regime.
	IntervalCycles uint64
	// JitterCycles decorrelates the sample clock from loop periods.
	JitterCycles uint64
	// Seed makes the sample clock reproducible. It is recorded in the
	// generated profile so a run can be replayed bit-identically.
	Seed uint64
	// Set is the tracked event set (TEA tracks all nine; TIP is TEA
	// with an empty set).
	Set events.Set
	// EveryCycle turns the unit into the golden reference: attribution
	// runs every cycle with weight 1 and no samples are materialized.
	EveryCycle bool
	// Prog is ignored: the unit's accumulator sizes itself from what
	// the stream attributes. It is kept only because bench/layers.go
	// still sets it.
	Prog *program.Program
}

// DefaultConfig returns the standard TEA configuration: all nine
// events, an 8192-cycle sampling interval with 512 cycles of jitter.
func DefaultConfig() Config {
	return Config{
		IntervalCycles: 8192,
		JitterCycles:   512,
		Seed:           1,
		Set:            events.TEASet,
	}
}

// pendingKind distinguishes why a sample is waiting for the next commit.
type pendingKind uint8

const (
	pendStalled pendingKind = iota
	pendDrained
)

// pending is a sample waiting for the next commit. The golden
// reference keeps a run of Stalled or Drained cycles as one entry that
// stands for count cycles; a sampling unit's entries stand for one.
type pending struct {
	kind   pendingKind
	cycle  uint64
	weight float64
	count  uint64
}

// TEA is the sampling unit. It implements cpu.Probe: attach it to a
// core and read the Profile (PICS) after the run. The same engine with
// EveryCycle set is the golden reference of Section 4.
type TEA struct {
	cpu.BaseProbe
	cfg     Config
	sampler *Sampler
	core    *cpu.CPU // charged each sample's interrupt cost; nil for golden

	samples   []Sample
	pendings  []pending
	acc       *pics.Accum   // attribution until Profile materializes it
	profile   *pics.Profile // set by the first Profile call
	keep      bool          // materialize Sample records (not just the profile)
	SampleCnt uint64
}

// NewTEA builds a TEA unit for the given core (nil on replay). A
// sampling unit on a live core charges the core's
// SampleOverheadCycles for each sample it delivers; the golden
// reference never charges.
func NewTEA(core *cpu.CPU, cfg Config) *TEA {
	name := "TEA"
	if cfg.EveryCycle {
		name = "golden"
	}
	if cfg.Set.Size() == 0 {
		name = "TIP"
	}
	t := &TEA{
		cfg:  cfg,
		acc:  pics.NewAccum(name, cfg.Set),
		keep: !cfg.EveryCycle,
	}
	if !cfg.EveryCycle {
		t.sampler = NewSeededSampler(cfg.IntervalCycles, cfg.JitterCycles, cfg.Seed)
		t.acc.SetSeed(cfg.Seed)
		t.core = core
	}
	return t
}

// NewGolden builds the golden reference: per-cycle attribution of every
// instruction with the full event set — the impractical-in-hardware
// baseline the paper compares every technique against.
func NewGolden(core *cpu.CPU) *TEA {
	return NewTEA(core, Config{Set: events.TEASet, EveryCycle: true})
}

// Profile returns the PICS generated from the captured samples. The
// accumulator is materialized on first call and released; attribution
// must be complete by then.
func (t *TEA) Profile() *pics.Profile {
	if t.acc != nil {
		t.profile = t.acc.Profile()
		t.acc = nil
	}
	return t.profile
}

// Samples returns the materialized sample records (empty for the golden
// reference, which models an impossible 116 GB/s sample stream).
func (t *TEA) Samples() []Sample { return t.samples }

// Hooks implements cpu.HookUser.
func (t *TEA) Hooks() cpu.Hooks { return cpu.HookCycle | cpu.HookCommit }

// OnCycle implements the sample-selection unit: classify the commit
// state and select the instruction(s) the core is exposing the latency
// of (Section 3). Samples taken in the Stalled and Drained states are
// delayed until the next µop commits so its PSV is fully updated.
func (t *TEA) OnCycle(ci *cpu.CycleInfo) {
	var weight float64
	if t.cfg.EveryCycle {
		weight = 1
	} else {
		if !t.sampler.Fires(ci.Cycle) {
			return
		}
		weight = float64(t.sampler.Interval())
	}

	switch ci.State {
	case events.Compute:
		n := len(ci.Committed)
		if n == 0 {
			return
		}
		share := weight / float64(n)
		// The golden reference (keep=false) attributes every cycle;
		// materializing per-cycle sample records there would dominate
		// the run, so the slice is only built for sampling units.
		var insts []SampledInst
		if t.keep {
			insts = make([]SampledInst, 0, n)
		}
		for _, r := range ci.Committed {
			t.acc.Add(r.PC, r.PSV, share)
			if t.keep {
				insts = append(insts, SampledInst{PC: r.PC, PSV: r.PSV.Mask(t.cfg.Set)})
			}
		}
		t.deliver(ci.Cycle, ci.State, insts, weight)
	case events.Stalled:
		// The head µop commits next; its PSV may still gain events, so
		// the sample is resolved at its commit.
		t.pendings = append(t.pendings, pending{kind: pendStalled, cycle: ci.Cycle, weight: weight, count: 1})
	case events.Drained:
		t.pendings = append(t.pendings, pending{kind: pendDrained, cycle: ci.Cycle, weight: weight, count: 1})
	case events.Flushed:
		r := ci.LastCommitted
		t.acc.Add(r.PC, r.PSV, weight)
		var insts []SampledInst
		if t.keep {
			insts = []SampledInst{{PC: r.PC, PSV: r.PSV.Mask(t.cfg.Set)}}
		}
		t.deliver(ci.Cycle, ci.State, insts, weight)
	}
}

// OnCycles implements cpu.RunProbe. A sampling unit steps its sample
// clock to each firing cycle inside the run. The golden reference
// attributes the whole run: a Flushed run with n in-order additions to
// its one slot, a Stalled or Drained run as one pending entry of n
// cycles.
func (t *TEA) OnCycles(ci *cpu.CycleInfo, n uint64) {
	if !t.cfg.EveryCycle {
		t.sampler.OnFirings(ci, n, t.OnCycle)
		return
	}
	switch ci.State {
	case events.Stalled:
		t.pendings = append(t.pendings, pending{kind: pendStalled, cycle: ci.Cycle, weight: 1, count: n})
	case events.Drained:
		t.pendings = append(t.pendings, pending{kind: pendDrained, cycle: ci.Cycle, weight: 1, count: n})
	case events.Flushed:
		r := ci.LastCommitted
		t.acc.AddN(r.PC, r.PSV, 1, n)
		t.SampleCnt += n
	default:
		cpu.EachCycle(ci, n, t.OnCycle)
	}
}

// OnCommit resolves delayed Stalled/Drained samples against the first
// committing µop (the next-committing instruction at sample time).
func (t *TEA) OnCommit(r cpu.Ref, cycle uint64) {
	if len(t.pendings) == 0 {
		return
	}
	for _, p := range t.pendings {
		t.acc.AddN(r.PC, r.PSV, p.weight, p.count)
		if !t.keep {
			t.SampleCnt += p.count
			continue
		}
		state := events.Stalled
		if p.kind == pendDrained {
			state = events.Drained
		}
		var insts []SampledInst
		if t.keep {
			insts = []SampledInst{{PC: r.PC, PSV: r.PSV.Mask(t.cfg.Set)}}
		}
		t.deliver(p.cycle, state, insts, p.weight)
	}
	t.pendings = t.pendings[:0]
}

func (t *TEA) deliver(cycle uint64, state events.CommitState, insts []SampledInst, weight float64) {
	t.SampleCnt++
	if t.keep {
		t.samples = append(t.samples, Sample{Cycle: cycle, State: state, Insts: insts, Weight: weight})
	}
	if t.core != nil {
		t.core.RequestSampleOverhead()
	}
}

// BuildProfile regenerates a PICS profile from materialized samples —
// the offline tool of Section 3 ("sample collection and PICS
// generation"). It must agree with the online profile.
func BuildProfile(name string, set events.Set, samples []Sample) *pics.Profile {
	p := pics.NewProfile(name, set)
	for _, s := range samples {
		share := s.Weight / float64(len(s.Insts))
		for _, si := range s.Insts {
			p.Add(si.PC, si.PSV, share)
		}
	}
	return p
}
