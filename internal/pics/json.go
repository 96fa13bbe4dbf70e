package pics

import (
	"encoding/json"
	"io"
	"math"
	"sort"

	"repro/internal/events"
	"repro/internal/simerr"
	"repro/internal/xiter"
)

// jsonProfile is the stable JSON shape of a profile.
type jsonProfile struct {
	Name   string     `json:"name"`
	Events []string   `json:"events"`
	Seed   uint64     `json:"seed"`
	Total  float64    `json:"total_cycles"`
	Insts  []jsonInst `json:"instructions"`
}

type jsonInst struct {
	PC         uint64          `json:"pc"`
	Height     float64         `json:"height_cycles"`
	Components []jsonComponent `json:"components"`
}

type jsonComponent struct {
	Signature string   `json:"signature"`
	Events    []string `json:"events,omitempty"`
	Cycles    float64  `json:"cycles"`
}

// WriteJSON serializes the profile for external tooling: instructions
// sorted by descending height, components by descending cycles —
// deterministic output for diffing and dashboards.
func (p *Profile) WriteJSON(w io.Writer) error {
	jp := jsonProfile{Name: p.Name, Seed: p.Seed, Total: p.Total()}
	for _, e := range p.Set.Events() {
		jp.Events = append(jp.Events, e.String())
	}
	for _, pc := range p.TopInstructions(len(p.Insts)) {
		st := p.Insts[pc]
		ji := jsonInst{PC: pc, Height: st.Total()}
		for _, sig := range st.SortedSignatures() {
			jc := jsonComponent{Signature: sig.String(), Cycles: st[sig]}
			for _, e := range sig.Events() {
				jc.Events = append(jc.Events, e.String())
			}
			ji.Components = append(ji.Components, jc)
		}
		jp.Insts = append(jp.Insts, ji)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(jp); err != nil {
		return simerr.Wrap(simerr.ErrInternal, simerr.Snapshot{}, err, "pics: writing profile JSON")
	}
	return nil
}

// ReadJSON parses a profile previously serialized with WriteJSON —
// the ingest half of the external-tooling contract (dashboards, diff
// pipelines). Every malformed document yields a typed
// simerr.ErrDecode error, never a panic and never a silently skewed
// profile: unknown event names, signatures inconsistent with their
// event lists, negative or non-finite cycle values, and duplicate
// instructions are all rejected (FuzzProfileJSON pins this).
func ReadJSON(r io.Reader) (*Profile, error) {
	fail := func(format string, args ...any) (*Profile, error) {
		return nil, simerr.New(simerr.ErrDecode, simerr.Snapshot{}, format, args...)
	}
	var jp jsonProfile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&jp); err != nil {
		return nil, simerr.Wrap(simerr.ErrDecode, simerr.Snapshot{}, err, "pics: parsing profile JSON")
	}

	byName := map[string]events.Event{}
	for _, e := range events.AllEvents() {
		byName[e.String()] = e
	}
	set := events.Set(0)
	for _, name := range jp.Events {
		e, ok := byName[name]
		if !ok {
			return fail("pics: unknown event %q in profile event set", name)
		}
		set |= events.NewSet(e)
	}

	p := NewProfile(jp.Name, set)
	p.Seed = jp.Seed
	for _, ji := range jp.Insts {
		if _, dup := p.Insts[ji.PC]; dup {
			return fail("pics: duplicate instruction pc %#x", ji.PC)
		}
		// Materialize the stack even for instructions whose components
		// all turn out empty, so round-tripping preserves presence.
		if p.Insts[ji.PC] == nil {
			p.Insts[ji.PC] = make(Stack)
		}
		for _, jc := range ji.Components {
			var sig events.PSV
			for _, name := range jc.Events {
				e, ok := byName[name]
				if !ok {
					return fail("pics: unknown event %q at pc %#x", name, ji.PC)
				}
				sig = sig.Set(e)
			}
			if sig.String() != jc.Signature {
				return fail("pics: signature %q does not match its event list %v at pc %#x",
					jc.Signature, jc.Events, ji.PC)
			}
			if sig.Mask(set) != sig {
				return fail("pics: signature %q outside the profile's event set at pc %#x",
					jc.Signature, ji.PC)
			}
			if math.IsNaN(jc.Cycles) || math.IsInf(jc.Cycles, 0) || jc.Cycles < 0 {
				return fail("pics: invalid cycle count %v at pc %#x", jc.Cycles, ji.PC)
			}
			st := p.Insts[ji.PC]
			if _, dup := st[sig]; dup {
				return fail("pics: duplicate component %q at pc %#x", jc.Signature, ji.PC)
			}
			st[sig] = jc.Cycles
		}
	}
	return p, nil
}

// Diff compares two profiles of the same program (e.g. before and after
// an optimization) and reports, per static instruction, the change in
// attributed cycles — the lbm/nab case-study workflow: optimize, rerun,
// see which instructions' stacks shrank or grew.
type Diff struct {
	PC     uint64
	Before float64
	After  float64
	Delta  float64
	// SignatureDeltas breaks the change down per component.
	SignatureDeltas map[events.PSV]float64
}

// DiffProfiles returns per-instruction deltas sorted by |delta|
// descending. Instructions present in only one profile appear with the
// other side at zero.
func DiffProfiles(before, after *Profile) []Diff {
	pcs := map[uint64]bool{}
	for _, pc := range xiter.SortedKeys(before.Insts) {
		pcs[pc] = true
	}
	for _, pc := range xiter.SortedKeys(after.Insts) {
		pcs[pc] = true
	}
	var out []Diff
	for _, pc := range xiter.SortedKeys(pcs) {
		d := Diff{PC: pc, SignatureDeltas: map[events.PSV]float64{}}
		if st := before.Insts[pc]; st != nil {
			d.Before = st.Total()
			for _, sig := range xiter.SortedKeys(st) {
				d.SignatureDeltas[sig] -= st[sig]
			}
		}
		if st := after.Insts[pc]; st != nil {
			d.After = st.Total()
			for _, sig := range xiter.SortedKeys(st) {
				d.SignatureDeltas[sig] += st[sig]
			}
		}
		d.Delta = d.After - d.Before
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := abs(out[i].Delta), abs(out[j].Delta)
		if ai != aj {
			return ai > aj
		}
		return out[i].PC < out[j].PC
	})
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
