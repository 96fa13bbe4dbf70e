// Command teadiff runs the same benchmark in two configurations and
// prints the per-instruction PICS delta — the optimization workflow of
// the Section 6 case studies: profile, change something, re-profile,
// and see which instructions' cycle stacks shrank or grew.
//
//	teadiff -mode lbm-prefetch -dist 3   # lbm: distance-0 vs distance-N
//	teadiff -mode nab-fastmath           # nab: with vs without flushes
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/pics"
	"repro/internal/program"
	"repro/internal/workloads"
)

func main() {
	mode := flag.String("mode", "lbm-prefetch", "lbm-prefetch or nab-fastmath")
	from := flag.Int("from", 1, "lbm-prefetch: baseline prefetch distance (>0 keeps layouts identical)")
	dist := flag.Int("dist", 4, "lbm-prefetch: optimized prefetch distance")
	top := flag.Int("top", 8, "number of diff rows to print")
	scale := flag.Float64("scale", 0.5, "workload size multiplier")
	flag.Parse()
	if *top < 0 {
		fmt.Fprintln(os.Stderr, "teadiff: -top must not be negative")
		os.Exit(2)
	}
	rc := analysis.DefaultRunConfig()
	rc.Scale = *scale
	if err := rc.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "teadiff:", err)
		os.Exit(2)
	}

	var name string
	var w workloads.Workload
	var before, after *program.Program
	switch *mode {
	case "lbm-prefetch":
		for _, d := range []int{*from, *dist} {
			if err := workloads.CheckPrefetchDist(d); err != nil {
				fmt.Fprintln(os.Stderr, "teadiff:", err)
				os.Exit(2)
			}
		}
		w, _ = workloads.ByName("lbm")
		name = fmt.Sprintf("lbm: prefetch distance %d -> %d", *from, *dist)
		before = workloads.LBM(rc.Iters(w), *from)
		after = workloads.LBM(rc.Iters(w), *dist)
	case "nab-fastmath":
		w, _ = workloads.ByName("nab")
		name = "nab: IEEE-compliant -> fast-math"
		before = workloads.NAB(rc.Iters(w), false)
		after = workloads.NAB(rc.Iters(w), true)
	default:
		fmt.Fprintf(os.Stderr, "teadiff: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	brBefore := analysis.RunProgram(w, before, rc)
	brAfter := analysis.RunProgram(w, after, rc)
	speedup := float64(brBefore.Stats.Cycles) / float64(brAfter.Stats.Cycles)

	fmt.Printf("%s\n", name)
	fmt.Printf("before: %d cycles   after: %d cycles   speedup: %.2fx\n\n",
		brBefore.Stats.Cycles, brAfter.Stats.Cycles, speedup)

	// Normalize both TEA profiles to their own golden totals so the
	// deltas are in real cycles of each run.
	brBefore.TEA.Normalize(brBefore.Golden.Total())
	brAfter.TEA.Normalize(brAfter.Golden.Total())

	if before.NumInsts() != after.NumInsts() {
		// The builds lay code out differently (instructions were added
		// or removed), so per-PC deltas would compare unrelated
		// instructions. Diff at function granularity instead, the way
		// symbol-based tools do.
		fmt.Println("(layouts differ: diffing at function granularity)")
		diffFunctions(brBefore.TEA.ByFunction(before), brAfter.TEA.ByFunction(after))
		return
	}

	diffs := pics.DiffProfiles(brBefore.TEA, brAfter.TEA)
	fmt.Printf("%-10s %-28s %12s %12s %12s\n", "pc", "instruction", "before", "after", "delta")
	shown := 0
	for _, d := range diffs {
		if shown >= *top {
			break
		}
		in := before.Inst(d.PC)
		dis := "?"
		if in != nil {
			dis = in.String()
		}
		fmt.Printf("%#08x %-28s %12.0f %12.0f %+12.0f\n", d.PC, dis, d.Before, d.After, d.Delta)
		shown++
	}
	fmt.Println("\n(negative delta: the optimization removed cycles from that instruction;")
	fmt.Println(" positive: the bottleneck moved there)")
}

// diffFunctions prints per-function deltas for cross-layout builds.
func diffFunctions(before, after map[string]pics.Stack) {
	names := map[string]bool{}
	for n := range before {
		names[n] = true
	}
	for n := range after {
		names[n] = true
	}
	type row struct {
		name       string
		bTot, aTot float64
	}
	var rows []row
	for n := range names {
		r := row{name: n}
		if st := before[n]; st != nil {
			r.bTot = st.Total()
		}
		if st := after[n]; st != nil {
			r.aTot = st.Total()
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		di := math.Abs(rows[i].aTot - rows[i].bTot)
		dj := math.Abs(rows[j].aTot - rows[j].bTot)
		if di != dj {
			return di > dj
		}
		return rows[i].name < rows[j].name
	})
	fmt.Printf("\n%-24s %12s %12s %12s\n", "function", "before", "after", "delta")
	for _, r := range rows {
		fmt.Printf("%-24s %12.0f %12.0f %+12.0f\n", r.name, r.bTot, r.aTot, r.aTot-r.bTot)
	}
}
