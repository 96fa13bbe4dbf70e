// Command teaprof profiles one benchmark of the suite with a chosen
// performance-analysis technique and prints the resulting
// Per-Instruction Cycle Stacks, like the PICS visualization tool of
// Section 3.
//
//	teaprof -bench lbm -tech TEA -top 10
//	teaprof -bench nab -tech IBS
//	teaprof -bench omnetpp -tech golden -funcs
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/pics"
	"repro/internal/profio"
	"repro/internal/workloads"
)

func main() {
	bench := flag.String("bench", "lbm", "benchmark to profile ("+strings.Join(workloads.Names(), ", ")+")")
	tech := flag.String("tech", "TEA", "technique: TEA, NCI-TEA, IBS, SPE, RIS, golden")
	top := flag.Int("top", 10, "number of instructions to print")
	funcs := flag.Bool("funcs", false, "aggregate at function granularity")
	bars := flag.Bool("bars", false, "render cycle stacks as ASCII bars")
	asJSON := flag.Bool("json", false, "emit the full profile as JSON")
	scale := flag.Float64("scale", 1.0, "workload size multiplier")
	interval := flag.Uint64("interval", 256, "sampling interval in cycles")
	seed := flag.Uint64("seed", 1, "sample-clock seed (recorded in the output for replay)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()
	if *interval == 0 {
		fmt.Fprintln(os.Stderr, "teaprof: -interval must be positive")
		os.Exit(2)
	}
	if *top < 0 {
		fmt.Fprintln(os.Stderr, "teaprof: -top must not be negative")
		os.Exit(2)
	}
	if !(*scale > 0) || math.IsInf(*scale, 0) {
		fmt.Fprintln(os.Stderr, "teaprof: -scale must be a positive finite number")
		os.Exit(2)
	}

	name := strings.ToLower(*tech)
	if known := analysis.ProfileTechniques(); !slices.Contains(known, name) {
		fmt.Fprintf(os.Stderr, "teaprof: unknown technique %q (known: %s)\n", *tech, strings.Join(known, ", "))
		os.Exit(2)
	}

	w, err := workloads.ByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "teaprof:", err)
		os.Exit(1)
	}
	rc := analysis.DefaultRunConfig()
	rc.Scale = *scale
	rc.Interval = *interval
	rc.Jitter = *interval / 16
	rc.Seed = *seed

	// Only golden, which the error and the cycle shares read, and the
	// requested technique are replayed.
	var br *analysis.BenchRun
	if err := profio.Profiled(*cpuprofile, *memprofile, func() (err error) {
		br, err = analysis.RunTechniquesContext(context.Background(), w, w.Build(rc.Iters(w)), rc, []string{"golden", name})
		if err == nil {
			err = errors.Join(br.Errors["golden"], br.Errors[name])
		}
		return err
	}); err != nil {
		fmt.Fprintln(os.Stderr, "teaprof:", err)
		os.Exit(1)
	}
	prof := br.Profile(name)

	if *asJSON {
		if err := prof.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "teaprof:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("%s: %d cycles, %d instructions committed, IPC %.2f\n",
		w.Name, br.Stats.Cycles, br.Stats.Committed, br.Stats.IPC())
	fmt.Printf("behavior: %s\n", w.Behavior)
	fmt.Printf("technique: %s (error vs golden: %.1f%%)\n\n",
		prof.Name, 100*pics.Error(prof, br.Golden))

	total := br.Golden.Total()
	if *funcs {
		byFn := prof.ByFunction(br.Program)
		type row struct {
			name  string
			stack pics.Stack
		}
		rows := make([]row, 0, len(byFn))
		for name, st := range byFn {
			rows = append(rows, row{name, st})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].stack.Total() > rows[j].stack.Total() })
		for i, r := range rows {
			if i >= *top {
				break
			}
			fmt.Printf("  %-24s height %.0f cycles (%.2f%%)\n%s",
				r.name, r.stack.Total(), 100*r.stack.Total()/total, r.stack.Render(total))
		}
		return
	}
	for _, pc := range prof.TopInstructions(*top) {
		if *bars {
			in := br.Program.Inst(pc)
			fmt.Printf("  %#08x  %-28s [%s]\n%s", pc, in.String(),
				br.Program.FuncOfPC(pc), prof.Insts[pc].RenderBars(total, 50))
			continue
		}
		fmt.Print(prof.RenderInstruction(pc, br.Program, total))
	}
}
