// Command bench measures TEA's capture, replay and serving stack end to
// end and layer by layer. One invocation runs one workload for a fixed
// time, checks every output it produced, prints every metric by name
// and unit, and ends with one JSON result line:
//
//	bash bench/run.sh --workload suite-cold --seed 1 --seconds 45 --trace 0
//
// --trace 1 makes a traced run instead: it reports the per-layer
// metrics and writes the span file. Without --workload, or with --runs
// or -o, the command runs each workload in a child process of its own
// and summarises the runs; -compare diffs two such summaries against
// the bounds in BENCHMARK.json. README.md describes the workloads, the
// metrics and the measured noise.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// workloadNames lists the workloads in the order a sweep runs them.
var workloadNames = []string{"suite-cold", "serve-tea"}

// setupRuns is how many set-ups a run of each workload times; setup_s
// is their median. A serve set-up takes about a fifth of a suite one,
// so it is repeated more often for a steadier median at a similar cost.
var setupRuns = map[string]int{"suite-cold": 5, "serve-tea": 15}

// options sizes one run of one workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string  // span file of a traced run; empty picks one under the temp dir
	scale    float64 // workload size, as analysis.RunConfig.Scale
	maxOps   int     // stop after this many ops even before seconds elapse; 0 = no cap
	setups   int     // set-up repetitions; 0 takes the workload's setupRuns
}

func defaultOptions() options {
	return options{seed: 1, seconds: 45, scale: 0.25}
}

func main() {
	o := defaultOptions()
	var traceFlag, runs int
	var out, spec string
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty or a comma-separated list: each in a child process)")
	flag.Uint64Var(&o.seed, "seed", o.seed, "input seed: the samplers' seed, in the suite passes and in every serve request")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "seconds of measured work per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 makes a traced run: per-layer metrics and a span file")
	flag.StringVar(&o.spans, "spans", "", "span file of a traced run (default: under the temp dir)")
	flag.IntVar(&runs, "runs", 1, "runs per workload, with seeds seed, seed+1, ... (each in a child process)")
	flag.StringVar(&out, "o", "", "write every run's result line to this file (each run in a child process)")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare base.json cur.json")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "benchmark declaration holding the regression bounds, for -compare")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("-trace must be 0 or 1, got %d", traceFlag)
	}
	o.trace = traceFlag == 1
	ctx := context.Background()

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatalf("-compare needs two files: base.json cur.json")
		}
		worse, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if worse {
			os.Exit(1)
		}
	case o.workload == "" || strings.Contains(o.workload, ",") || runs > 1 || out != "":
		names := workloadNames
		if o.workload != "" {
			names = strings.Split(o.workload, ",")
		}
		ok, err := sweep(ctx, os.Stdout, names, runs, o, out)
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		res, err := runOne(ctx, os.Stdout, o)
		if err != nil {
			fatalf("%v", err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("encoding result: %v", err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// runOne runs one workload in this process, prints its report to w and
// returns the result line's contents.
func runOne(ctx context.Context, w io.Writer, o options) (result, error) {
	rep := newReport()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	if o.setups == 0 {
		o.setups = setupRuns[o.workload]
	}
	if !o.trace && !resetPeakRSS() {
		rep.note("the kernel refused to reset the peak RSS: each window's peak is the run's peak so far")
	}
	var err error
	switch o.workload {
	case "suite-cold":
		err = runSuite(ctx, o, rep, tr)
	case "serve-tea":
		err = runServe(ctx, o, rep, tr)
	default:
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	fmt.Fprintf(w, "env workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d go=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rep.print(w)
	if o.trace {
		if err := finishTrace(w, tr, o); err != nil {
			return result{}, err
		}
	}
	return rep.result(), nil
}
