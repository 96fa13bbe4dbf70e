package pics

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/xiter"
)

// ByBlock aggregates the profile at basic-block granularity using the
// program's control-flow graph.
func (p *Profile) ByBlock(prog *program.Program) map[string]Stack {
	blocks := prog.BasicBlocks()
	out := make(map[string]Stack)
	for _, pc := range xiter.SortedKeys(p.Insts) {
		idx := program.BlockOf(blocks, isa.IndexOf(pc))
		name := "<unknown>"
		if idx >= 0 {
			name = blocks[idx].Name()
		}
		dst := out[name]
		if dst == nil {
			dst = make(Stack)
			out[name] = dst
		}
		st := p.Insts[pc]
		for _, sig := range xiter.SortedKeys(st) {
			dst[sig] += st[sig]
		}
	}
	return out
}

// ErrorByBlock computes the Section 4 error metric at basic-block
// granularity.
func ErrorByBlock(test, golden *Profile, prog *program.Program) float64 {
	g := golden.Project(test.Set)
	t := test.Project(test.Set)
	total := g.Total()
	if total == 0 {
		return 0
	}
	t.Normalize(total)
	return errorBetween(t.ByBlock(prog), g.ByBlock(prog), total)
}

// RenderBars renders a cycle stack as an ASCII bar, one row per
// component, scaled so that width columns represent the reference
// total — the paper's PICS visualization at a glance.
func (s Stack) RenderBars(total float64, width int) string {
	if width <= 0 {
		width = 60
	}
	var b strings.Builder
	for _, sig := range s.SortedSignatures() {
		v := s[sig]
		frac := 0.0
		if total > 0 {
			frac = v / total
		}
		n := int(frac*float64(width) + 0.5)
		if n == 0 && v > 0 {
			n = 1
		}
		fmt.Fprintf(&b, "    %-24s |%-*s| %5.2f%%\n",
			sig.String(), width, strings.Repeat("#", min(n, width)), 100*frac)
	}
	return b.String()
}
