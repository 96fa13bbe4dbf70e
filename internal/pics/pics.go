// Package pics implements Per-Instruction Cycle Stacks — the paper's
// central data structure — and the error metric of Section 4. A PICS
// breaks the execution time attributed to each static instruction down
// across the (combinations of) performance events the instruction was
// subjected to; the stack height is the instruction's contribution to
// total execution time and each component's size is the impact of that
// event combination.
package pics

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/events"
	"repro/internal/program"
	"repro/internal/xiter"
)

// Stack is one cycle stack: cycles per signature (events.PSV). The zero
// signature is the paper's "Base" component (no events).
type Stack map[events.PSV]float64

// Total returns the stack height. Components are summed in signature
// order so the float64 result is identical run to run.
func (s Stack) Total() float64 {
	t := 0.0
	for _, sig := range xiter.SortedKeys(s) {
		t += s[sig]
	}
	return t
}

// Add accumulates w cycles into the signature's component.
func (s Stack) Add(sig events.PSV, w float64) { s[sig] += w }

// SortedSignatures returns the stack's signatures by descending cycles,
// with the signature value itself as the tie-break: the one component
// order every renderer and the JSON writer use.
func (s Stack) SortedSignatures() []events.PSV {
	sigs := xiter.SortedKeys(s)
	slices.SortStableFunc(sigs, func(a, b events.PSV) int {
		switch {
		case s[a] > s[b]:
			return -1
		case s[a] < s[b]:
			return 1
		}
		return 0
	})
	return sigs
}

// Scale multiplies every component by f.
func (s Stack) Scale(f float64) {
	for _, k := range xiter.SortedKeys(s) {
		s[k] *= f
	}
}

// Project folds the stack's signatures onto an event set: bits outside
// the set are dropped and components with identical projected
// signatures merge. The paper projects the golden reference onto each
// technique's event set for fair comparison (Section 4).
func (s Stack) Project(set events.Set) Stack {
	out := make(Stack, len(s))
	for _, sig := range xiter.SortedKeys(s) {
		out[sig.Mask(set)] += s[sig]
	}
	return out
}

// Profile is a full PICS profile: one cycle stack per static
// instruction, plus the technique's event set.
type Profile struct {
	// Name identifies the technique or configuration that produced the
	// profile.
	Name string
	// Set is the event set signatures are drawn from.
	Set events.Set
	// Seed is the sample-clock seed the producing technique ran with
	// (zero for unseeded producers such as the golden reference). It is
	// recorded in serialized output so a profile can be replayed:
	// identical traces plus an identical seed produce identical PICS.
	Seed uint64
	// Insts maps a static instruction's PC to its cycle stack.
	Insts map[uint64]Stack
}

// NewProfile returns an empty profile.
func NewProfile(name string, set events.Set) *Profile {
	return &Profile{Name: name, Set: set, Insts: make(map[uint64]Stack)}
}

// Add attributes w cycles to (pc, signature); the signature is masked
// to the profile's event set.
func (p *Profile) Add(pc uint64, sig events.PSV, w float64) {
	st := p.Insts[pc]
	if st == nil {
		st = make(Stack)
		p.Insts[pc] = st
	}
	st.Add(sig.Mask(p.Set), w)
}

// Total returns the cycles attributed across all instructions, summed
// in PC order for run-to-run bit identity.
func (p *Profile) Total() float64 {
	t := 0.0
	for _, pc := range xiter.SortedKeys(p.Insts) {
		t += p.Insts[pc].Total()
	}
	return t
}

// Normalize scales the profile so its total equals total. Sampled
// profiles attribute (#samples × period) cycles; normalizing to the
// golden total removes boundary effects before error comparison.
func (p *Profile) Normalize(total float64) {
	cur := p.Total()
	if cur == 0 || total == 0 {
		return
	}
	f := total / cur
	for _, pc := range xiter.SortedKeys(p.Insts) {
		p.Insts[pc].Scale(f)
	}
}

// Project returns the profile folded onto a (smaller) event set.
func (p *Profile) Project(set events.Set) *Profile {
	out := NewProfile(p.Name, set)
	out.Seed = p.Seed
	for _, pc := range xiter.SortedKeys(p.Insts) {
		out.Insts[pc] = p.Insts[pc].Project(set)
	}
	return out
}

// ByFunction aggregates the profile at function granularity using the
// program's symbol table.
func (p *Profile) ByFunction(prog *program.Program) map[string]Stack {
	out := make(map[string]Stack)
	for _, pc := range xiter.SortedKeys(p.Insts) {
		fn := prog.FuncOfPC(pc)
		dst := out[fn]
		if dst == nil {
			dst = make(Stack)
			out[fn] = dst
		}
		st := p.Insts[pc]
		for _, sig := range xiter.SortedKeys(st) {
			dst[sig] += st[sig]
		}
	}
	return out
}

// Application aggregates the whole profile into a single stack.
func (p *Profile) Application() Stack {
	out := make(Stack)
	for _, pc := range xiter.SortedKeys(p.Insts) {
		st := p.Insts[pc]
		for _, sig := range xiter.SortedKeys(st) {
			out[sig] += st[sig]
		}
	}
	return out
}

// TopInstructions returns the n instructions with the tallest stacks,
// most expensive first. Stack heights are computed once per
// instruction rather than inside the sort comparator.
func (p *Profile) TopInstructions(n int) []uint64 {
	pcs := xiter.SortedKeys(p.Insts)
	totals := make(map[uint64]float64, len(pcs))
	for _, pc := range pcs {
		totals[pc] = p.Insts[pc].Total()
	}
	sort.Slice(pcs, func(i, j int) bool {
		ti, tj := totals[pcs[i]], totals[pcs[j]]
		if ti != tj {
			return ti > tj
		}
		return pcs[i] < pcs[j] // deterministic tie-break
	})
	if len(pcs) > n {
		pcs = pcs[:n]
	}
	return pcs
}

// Error computes the paper's error metric between a technique's profile
// and the golden reference at instruction granularity:
//
//	E = (C_total − Σ_u Σ_i min(c_i,u, ĉ_i,u)) / C_total
//
// where C_total is the golden total. The golden profile is projected
// onto the technique's event set first, and the technique's profile is
// normalized to the golden total.
func Error(test, golden *Profile) float64 {
	g := golden.Project(test.Set)
	t := test.Project(test.Set) // cheap copy; keeps inputs untouched
	total := g.Total()
	if total == 0 {
		return 0
	}
	t.Normalize(total)
	return errorBetween(t.Insts, g.Insts, total)
}

// ErrorByFunction computes the same metric at function granularity.
func ErrorByFunction(test, golden *Profile, prog *program.Program) float64 {
	g := golden.Project(test.Set)
	t := test.Project(test.Set)
	total := g.Total()
	if total == 0 {
		return 0
	}
	t.Normalize(total)
	return errorBetween(t.ByFunction(prog), g.ByFunction(prog), total)
}

// ErrorApplication computes the metric with the whole application as a
// single unit (only component mix matters).
func ErrorApplication(test, golden *Profile) float64 {
	g := golden.Project(test.Set)
	t := test.Project(test.Set)
	total := g.Total()
	if total == 0 {
		return 0
	}
	t.Normalize(total)
	return errorBetween(
		map[string]Stack{"app": t.Application()},
		map[string]Stack{"app": g.Application()},
		total)
}

func errorBetween[K cmp.Ordered](test, golden map[K]Stack, total float64) float64 {
	correct := 0.0
	for _, key := range xiter.SortedKeys(golden) {
		gst := golden[key]
		tst := test[key]
		if tst == nil {
			continue
		}
		for _, sig := range xiter.SortedKeys(gst) {
			gv := gst[sig]
			tv := tst[sig]
			if tv < gv {
				correct += tv
			} else {
				correct += gv
			}
		}
	}
	e := (total - correct) / total
	// Clamp floating-point residue: the metric is in [0, 1] by
	// construction, but summation can leave ~1e-16 of noise on either
	// side.
	if e < 0 {
		return 0
	}
	if e > 1 {
		return 1
	}
	return e
}

// Render returns a human-readable listing of the stack's components,
// largest first, as fractions of the reference total.
func (s Stack) Render(total float64) string {
	var b strings.Builder
	for _, sig := range s.SortedSignatures() {
		pct := 0.0
		if total > 0 {
			pct = 100 * s[sig] / total
		}
		fmt.Fprintf(&b, "    %-24s %12.0f cycles  %5.2f%%\n", sig.String(), s[sig], pct)
	}
	return b.String()
}

// RenderInstruction formats one instruction's stack with its
// disassembly and owning function.
func (p *Profile) RenderInstruction(pc uint64, prog *program.Program, total float64) string {
	st := p.Insts[pc]
	if st == nil {
		return fmt.Sprintf("  %#08x: no samples\n", pc)
	}
	in := prog.Inst(pc)
	dis := "?"
	if in != nil {
		dis = in.String()
	}
	head := fmt.Sprintf("  %#08x  %-28s [%s]  height %.0f cycles (%.2f%% of total)\n",
		pc, dis, prog.FuncOfPC(pc), st.Total(), 100*st.Total()/total)
	return head + st.Render(total)
}
