package pics

import "repro/internal/events"

// accumMinBits sizes a new accumulator's table at 1<<accumMinBits
// slots; it doubles whenever more than half the slots are in use.
const accumMinBits = 8

// Accum is a sparse PICS accumulator for the per-cycle hot path. A
// PICS is sparse by construction: an instruction gets a component only
// for the event combinations its dynamic instances met. Accum keeps
// one open-addressed table (linear probing, power-of-two size) keyed
// by (PC, masked signature), so its memory grows with the distinct
// pairs the stream attributes, never with program size × 512
// signatures. Adding to an existing pair probes a flat slice: no map
// lookup, no allocation. Each slot receives the same float64 additions
// in the same order as Profile.Add would give its component, so a
// materialized Accum is bit-identical to a Profile built directly.
type Accum struct {
	name  string
	set   events.Set
	seed  uint64
	slots []accumSlot
	used  int
	shift uint // 64 - log2(len(slots)), for multiplicative hashing
}

// accumSlot is one (PC, signature) component. tag is the masked
// signature plus one, so a zero tag marks an empty slot for any PC.
type accumSlot struct {
	pc  uint64
	v   float64
	tag uint32
}

// NewAccum returns an empty accumulator for the named technique.
func NewAccum(name string, set events.Set) *Accum {
	return &Accum{
		name:  name,
		set:   set,
		slots: make([]accumSlot, 1<<accumMinBits),
		shift: 64 - accumMinBits,
	}
}

// SetSeed records the producing technique's sample-clock seed for the
// materialized profile.
func (a *Accum) SetSeed(seed uint64) { a.seed = seed }

// home is the first slot probed for a key (Fibonacci hashing). Add
// compares whole keys, so a hash collision costs a probe, never a
// merge.
func (a *Accum) home(pc uint64, tag uint32) int {
	return int((pc ^ uint64(tag)<<48) * 0x9E3779B97F4A7C15 >> a.shift)
}

// Add attributes w cycles to (pc, signature); the signature is masked
// to the accumulator's event set.
func (a *Accum) Add(pc uint64, sig events.PSV, w float64) { a.AddN(pc, sig, w, 1) }

// AddN attributes w cycles to (pc, signature) n times over: one slot
// lookup, then n additions of w in order, exactly what n Add calls do.
// It never adds n·w once, which rounds differently when the slot
// already holds fractions.
func (a *Accum) AddN(pc uint64, sig events.PSV, w float64, n uint64) {
	if n == 0 {
		return
	}
	tag := uint32(sig.Mask(a.set)) + 1
	mask := len(a.slots) - 1
	i := a.home(pc, tag)
	for a.slots[i].tag != 0 && (a.slots[i].tag != tag || a.slots[i].pc != pc) {
		i = (i + 1) & mask
	}
	s := &a.slots[i]
	for range n {
		s.v += w
	}
	if s.tag == 0 {
		s.pc, s.tag = pc, tag
		a.used++
		if 2*a.used > len(a.slots) {
			a.grow()
		}
	}
}

// grow doubles the table and reinserts every occupied slot. Slots move
// whole, so no component's addition sequence changes.
func (a *Accum) grow() {
	old := a.slots
	a.slots = make([]accumSlot, 2*len(old))
	a.shift--
	mask := len(a.slots) - 1
	for _, s := range old {
		if s.tag == 0 {
			continue
		}
		i := a.home(s.pc, s.tag)
		for a.slots[i].tag != 0 {
			i = (i + 1) & mask
		}
		a.slots[i] = s
	}
}

// Profile materializes the accumulated stacks into a map-based Profile.
// Only non-zero components appear, and only instructions holding one;
// for positive weights that is exactly the Profile that Profile.Add
// builds from the same calls.
func (a *Accum) Profile() *Profile {
	p := NewProfile(a.name, a.set)
	p.Seed = a.seed
	for _, s := range a.slots {
		if s.v == 0 {
			continue
		}
		st := p.Insts[s.pc]
		if st == nil {
			st = make(Stack)
			p.Insts[s.pc] = st
		}
		st[events.PSV(s.tag-1)] = s.v
	}
	return p
}
