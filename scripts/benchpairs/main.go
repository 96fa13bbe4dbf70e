// Command benchpairs runs the end-to-end benchmark on two checkouts in
// alternating pairs and judges a claimed gain by the acceptance rule:
// the change must win at least nine tenths of the pairs, and its median
// must differ from the base's by more than the base's interquartile
// range.
//
//	go run ./scripts/benchpairs -base ../parent -change . \
//	    -workload suite-cold -seed 1 -seconds 45 -pairs 10
//
// Each run is one `bash bench/run.sh --workload W --seed N --seconds S
// --trace 0` in its checkout, in ABBA order (base first in even pairs,
// change first in odd ones), so drift on a shared host falls on both
// sides alike. The last line each run prints is its result; every run,
// each side's quartiles per end-to-end metric and the change's wins are
// printed. The direction of each metric comes from the base checkout's
// BENCHMARK.json. The command exits 1 when any run fails, is incorrect
// or has failed operations, and 2 on a usage error; a claim that does
// not hold is reported, not an exit status.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// result is the line a benchmark run prints last.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// endToEnd is one end-to-end metric of BENCHMARK.json.
type endToEnd struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func main() {
	base := flag.String("base", "", "checkout of the parent commit")
	change := flag.String("change", "", "checkout of the change")
	workload := flag.String("workload", "suite-cold", "benchmark workload")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 45, "run length in seconds")
	pairs := flag.Int("pairs", 10, "number of base/change pairs")
	flag.Parse()
	if *base == "" || *change == "" || *pairs < 1 || !(*seconds > 0) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchpairs -base DIR -change DIR [-workload W] [-seed N] [-seconds S] [-pairs P]")
		os.Exit(2)
	}
	metrics, err := readSpec(filepath.Join(*base, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	args := []string{"--workload", *workload, "--seed", strconv.FormatUint(*seed, 10),
		"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", "0"}
	sides := [2]string{*base, *change}
	var runs [2][]result
	ok := true
	for p := 0; p < *pairs; p++ {
		order := [2]int{0, 1}
		if p%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, s := range order {
			res, err := run(ctx, sides[s], args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchpairs: pair %d, %s: %v\n", p+1, sideName(s), err)
				os.Exit(1)
			}
			if !res.Correct || res.Failed > 0 {
				ok = false
			}
			runs[s] = append(runs[s], res)
			fmt.Printf("pair %2d %-6s correct=%v ops=%d failed=%d", p+1, sideName(s), res.Correct, res.Attempted, res.Failed)
			for _, m := range metrics {
				fmt.Printf(" %s=%.6g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Println()
		}
	}
	report(os.Stdout, metrics, runs)
	if !ok {
		fmt.Println("FAIL: a run was incorrect or had failed operations")
		os.Exit(1)
	}
}

func sideName(s int) string { return [2]string{"base", "change"}[s] }

// readSpec returns the end-to-end metrics BENCHMARK.json declares.
func readSpec(path string) ([]endToEnd, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []endToEnd `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no end-to-end metric", path)
	}
	return spec.EndToEnd, nil
}

// run runs the benchmark once in dir and returns its result line.
func run(ctx context.Context, dir string, args []string) (result, error) {
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, "bash", append([]string{"bench/run.sh"}, args...)...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	res, err := lastResult(stdout.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("%v (exit: %v)\n%s", err, runErr, stdout.String())
	}
	if runErr != nil {
		res.Correct = false
	}
	return res, nil
}

// lastResult parses the last non-empty line of a run's output.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// report prints each side's quartiles per metric, the change's wins
// over its pair's base run, and whether the claim rule holds.
func report(w io.Writer, metrics []endToEnd, runs [2][]result) {
	n := min(len(runs[0]), len(runs[1]))
	need := int(math.Ceil(0.9 * float64(n)))
	fmt.Fprintf(w, "\n%-16s %-6s %12s %12s %12s %7s %12s %s\n",
		"metric", "side", "q1", "median", "q3", "wins", "diff", "claim rule")
	for _, m := range metrics {
		lower := m.Better != "higher"
		var vals [2][]float64
		for s := range runs {
			for _, r := range runs[s][:n] {
				vals[s] = append(vals[s], r.Metrics[m.Name].Value)
			}
		}
		wins := 0
		for i := 0; i < n; i++ {
			if d := vals[1][i] - vals[0][i]; lower && d < 0 || !lower && d > 0 {
				wins++
			}
		}
		bq1, bmed, bq3 := quartiles(vals[0])
		cq1, cmed, cq3 := quartiles(vals[1])
		gain := bmed - cmed
		if !lower {
			gain = -gain
		}
		holds := wins >= need && gain > bq3-bq1
		verdict := fmt.Sprintf("fails (%d of %d wins, need %d; gain %.4g vs base IQR %.4g)", wins, n, need, gain, bq3-bq1)
		if holds {
			verdict = fmt.Sprintf("holds (gain %.4g > base IQR %.4g)", gain, bq3-bq1)
		}
		fmt.Fprintf(w, "%-16s %-6s %12.6g %12.6g %12.6g\n", m.Name, "base", bq1, bmed, bq3)
		fmt.Fprintf(w, "%-16s %-6s %12.6g %12.6g %12.6g %3d/%-3d %+11.2f%% %s\n", "", "change",
			cq1, cmed, cq3, wins, n, 100*(cmed-bmed)/bmed, verdict)
	}
}

// quartiles returns the three quartiles of xs by the exclusive method
// of Python's statistics.quantiles(xs, n=4), the one the benchmark's
// acceptance spreads use.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}
