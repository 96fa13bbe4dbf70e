// Package benchfile checks computed benchmark metrics against a
// committed BENCH_*.json file. Those files hold the custom metrics that
// `go test -bench` printed when they were written, so a computed value
// is first rounded the way testing printed it and must then equal the
// recorded value exactly. Timing columns (ns_per_op, bytes_per_op,
// allocs_per_op) are machine-dependent and never compared.
//
// There is no update mode: a deliberate change to a pinned number
// edits the committed file by hand.
package benchfile

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"repro/internal/xiter"
)

// file is the part of a BENCH file that is compared.
type file struct {
	Benchmarks []struct {
		Name    string             `json:"name"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"benchmarks"`
}

// Drift compares got, the computed metrics by benchmark name and then
// metric name, with the BENCH file at path. It returns one message per
// changed, missing or extra metric and per missing or extra benchmark,
// in name order; none means the two agree.
func Drift(path string, got map[string]map[string]float64) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	want := make(map[string]map[string]float64, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		want[b.Name] = b.Metrics
	}

	var msgs []string
	for _, name := range xiter.SortedKeys(want) {
		cur, ok := got[name]
		if !ok {
			msgs = append(msgs, fmt.Sprintf("%s: in %s, not computed", name, path))
			continue
		}
		for _, m := range xiter.SortedKeys(want[name]) {
			w := want[name][m]
			v, ok := cur[m]
			switch {
			case !ok:
				msgs = append(msgs, fmt.Sprintf("%s %s: %s in %s, not computed", name, m, num(w), path))
			case printed(v) != w:
				msgs = append(msgs, fmt.Sprintf("%s %s: computed %s, prints %s, %s has %s",
					name, m, num(v), num(printed(v)), path, num(w)))
			}
		}
		for _, m := range xiter.SortedKeys(cur) {
			if _, ok := want[name][m]; !ok {
				msgs = append(msgs, fmt.Sprintf("%s %s: computed %s, prints %s, not in %s",
					name, m, num(cur[m]), num(printed(cur[m])), path))
			}
		}
	}
	for _, name := range xiter.SortedKeys(got) {
		if _, ok := want[name]; !ok {
			msgs = append(msgs, fmt.Sprintf("%s: computed, not in %s", name, path))
		}
	}
	return msgs, nil
}

// printed returns x as `go test -bench` printed a custom metric:
// testing's prettyPrint ($GOROOT/src/testing/benchmark.go) uses %.0f at
// or above 999.95 and four significant digits below, down to seven
// decimals.
func printed(x float64) float64 {
	var prec int
	switch y := math.Abs(x); {
	case y == 0 || y >= 999.95:
		prec = 0
	case y >= 99.995:
		prec = 1
	case y >= 9.9995:
		prec = 2
	case y >= 0.99995:
		prec = 3
	case y >= 0.099995:
		prec = 4
	case y >= 0.0099995:
		prec = 5
	case y >= 0.00099995:
		prec = 6
	default:
		prec = 7
	}
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', prec, 64), 64) // FormatFloat's output always parses
	return v
}

// num formats x in full without an exponent, as JSON files hold it.
func num(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }
