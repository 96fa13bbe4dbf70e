// Command teachaos runs the fault-injection chaos suite against the
// capture/replay pipeline and reports every mutant's disposition. The
// trace mutants cover record-level damage (truncation, bit flips,
// record swaps) and v4-codec-targeted damage: corrupted pattern-table
// tokens (token@N) and column boundaries (collen@N length prefixes,
// colswap@A.B cross-column byte swaps). The contract it enforces:
// every mutated trace stream yields either byte-identical profiles or
// a typed error — never a crash, a hang, or a silently wrong profile.
//
//	teachaos [-seed n] [-workload name|all] [-scale f] [-disk] [-v]
//
// With -disk the suite instead attacks the durability layer: disk
// faults (torn final record, mid-stream bit flip, ENOSPC, EIO, slow
// I/O) are injected under the job journal, and the contract is that
// the server never crashes and never serves wrong bytes — torn tails
// truncate on recovery, corruption fails typed, runtime write failures
// degrade to memory-only mode.
//
// The sweep is fully determined by the seed, so a reported violation
// reproduces from the printed (seed, workload) pair. Exits nonzero if
// any scenario violates the contract.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/faultinject"
	"repro/internal/workloads"
)

func main() {
	seed := flag.Uint64("seed", 1, "chaos seed (drives every mutation)")
	workload := flag.String("workload", "bwaves", "workload to capture, or 'all'")
	scale := flag.Float64("scale", 0.05, "workload size multiplier")
	disk := flag.Bool("disk", false, "run the disk-fault sweep against the job journal instead of the trace sweep")
	verbose := flag.Bool("v", false, "print every scenario, not just violations")
	flag.Parse()

	if *disk {
		tmp, err := os.MkdirTemp("", "teachaos-disk-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "teachaos:", err)
			os.Exit(2)
		}
		defer os.RemoveAll(tmp)
		rep, err := faultinject.DiskSweep(tmp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "teachaos: disk sweep:", err)
			os.RemoveAll(tmp)
			os.Exit(1)
		}
		for _, o := range rep.Outcomes {
			if *verbose || !o.OK {
				fmt.Printf("%-28s %s\n", o.Fault, o.Detail)
			}
		}
		fmt.Printf("disk: %d scenarios, %d violations\n", len(rep.Outcomes), rep.Violations)
		if rep.Violations > 0 {
			fmt.Fprintf(os.Stderr, "teachaos: %d contract violations\n", rep.Violations)
			os.RemoveAll(tmp)
			os.Exit(1)
		}
		os.RemoveAll(tmp)
		return
	}

	rc := analysis.DefaultRunConfig()
	rc.Scale = *scale

	var targets []workloads.Workload
	if *workload == "all" {
		targets = workloads.All()
	} else {
		w, err := workloads.ByName(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "teachaos:", err)
			os.Exit(2)
		}
		targets = []workloads.Workload{w}
	}

	violations := 0
	for _, w := range targets {
		rep, err := faultinject.Sweep(w, rc, faultinject.DefaultConfig(*seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "teachaos: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		for _, o := range rep.Outcomes {
			if *verbose || !o.OK {
				fmt.Printf("%-10s %-24s %s\n", w.Name, o.Fault, o.Detail)
			}
		}
		fmt.Printf("%s: %d scenarios, %d violations (seed %d)\n",
			w.Name, len(rep.Outcomes), rep.Violations, rep.Seed)
		violations += rep.Violations
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "teachaos: %d contract violations\n", violations)
		os.Exit(1)
	}
}
