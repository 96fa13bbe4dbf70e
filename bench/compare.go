package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runRecord is one run of a sweep, as the result file holds it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// sweep runs each named workload runs times, seeds o.seed upward, each
// run in a child process of this binary so the analysis package's
// process-wide store and counters, the heap and the peak RSS belong to
// that run alone. It prints each metric's median and quartiles and,
// with out set, writes every run's record there. It reports whether
// every run was correct.
func sweep(ctx context.Context, w io.Writer, names []string, runs int, o options, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	var recs []runRecord
	ok := true
	for _, name := range names {
		for k := 0; k < runs; k++ {
			seed := o.seed + uint64(k)
			args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(boolInt(o.trace))}
			var stdout bytes.Buffer
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			res, perr := lastResult(stdout.Bytes())
			if perr != nil {
				return false, fmt.Errorf("%s seed %d: %v (exit: %v)\n%s", name, seed, perr, runErr, stdout.String())
			}
			if runErr != nil || !res.Correct {
				ok = false
				fmt.Fprintf(w, "%s seed %d failed its checks:\n%s", name, seed, stdout.String())
			}
			fmt.Fprintf(w, "%s seed %d: %d ops, %d failed\n", name, seed, res.Attempted, res.Failed)
			recs = append(recs, runRecord{Workload: name, Seed: seed, Trace: o.trace, Result: res})
		}
	}
	summarize(w, recs)
	if out != "" {
		data, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// lastResult parses the result line a run prints last.
func lastResult(stdout []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
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

// series groups the values of one metric of one workload across runs.
type series struct {
	workload, metric, unit string
	values                 []float64
}

func groupRuns(recs []runRecord) []series {
	idx := map[[2]string]int{}
	var out []series
	for _, r := range recs {
		for name, m := range r.Result.Metrics {
			k := [2]string{r.Workload, name}
			i, seen := idx[k]
			if !seen {
				i = len(out)
				idx[k] = i
				out = append(out, series{workload: r.Workload, metric: name, unit: m.Unit})
			}
			out[i].values = append(out[i].values, m.Value)
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].workload != out[b].workload {
			return out[a].workload < out[b].workload
		}
		return out[a].metric < out[b].metric
	})
	return out
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

func summarize(w io.Writer, recs []runRecord) {
	fmt.Fprintf(w, "%-14s %-34s %5s %16s %16s %16s %9s\n", "workload", "metric", "runs", "q1", "median", "q3", "iqr/med")
	for _, s := range groupRuns(recs) {
		q1, q2, q3 := quartiles(s.values)
		fmt.Fprintf(w, "%-14s %-34s %5d %16.6g %16.6g %16.6g %8.2f%% %s\n",
			s.workload, s.metric, len(s.values), q1, q2, q3, 100*spread(s.values), s.unit)
	}
}

// spec is the part of BENCHMARK.json -compare needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges cur against base for one metric: "better", "within
// bound", "worse", or "unresolved" when the run-to-run spread of either
// side exceeds the bound and not every current run beats every base run.
func verdict(base, cur []float64, lowerBetter bool, bound float64) string {
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	// worse > 0 means cur is worse than base, as a share of base.
	worse := sign * (median(cur) - median(base)) / median(base)
	allBetter := true
	for _, c := range cur {
		for _, b := range base {
			if sign*(c-b) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "better"
	case spread(base) > bound || spread(cur) > bound:
		return "unresolved"
	case worse > bound:
		return "worse"
	case -worse > spread(base):
		return "better"
	default:
		return "within bound"
	}
}

// compareFiles prints, for every workload and end-to-end metric, the
// base and current medians and spreads and a verdict by the bounds in
// specPath. It reports whether any metric got worse.
func compareFiles(w io.Writer, specPath, basePath, curPath string) (bool, error) {
	var sp spec
	var baseRecs, curRecs []runRecord
	if err := readJSON(specPath, &sp); err != nil {
		return false, err
	}
	if err := readJSON(basePath, &baseRecs); err != nil {
		return false, err
	}
	if err := readJSON(curPath, &curRecs); err != nil {
		return false, err
	}
	base, cur := map[[2]string][]float64{}, map[[2]string][]float64{}
	var workloads []string
	for _, s := range groupRuns(baseRecs) {
		base[[2]string{s.workload, s.metric}] = s.values
		if len(workloads) == 0 || workloads[len(workloads)-1] != s.workload {
			workloads = append(workloads, s.workload)
		}
	}
	for _, s := range groupRuns(curRecs) {
		cur[[2]string{s.workload, s.metric}] = s.values
	}
	anyWorse := false
	fmt.Fprintf(w, "%-14s %-16s %14s %8s %14s %8s %7s  %s\n", "workload", "metric", "base median", "iqr", "cur median", "iqr", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range sp.EndToEnd {
			k := [2]string{wl, m.Name}
			b, c := base[k], cur[k]
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-14s %-16s missing from one side\n", wl, m.Name)
				continue
			}
			v := verdict(b, c, m.Better == "lower", m.Bound)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-14s %-16s %14.6g %7.2f%% %14.6g %7.2f%% %6.0f%%  %s\n",
				wl, m.Name, median(b), 100*spread(b), median(c), 100*spread(c), 100*m.Bound, v)
		}
	}
	return anyWorse, nil
}
