// Command teatrace records a benchmark's execution as a binary cycle
// trace, replays traces offline — the TraceDoctor capture-once /
// analyze-many workflow of Section 4 as a standalone tool — and
// inspects a trace's codec statistics.
//
//	teatrace -record lbm.trace -bench lbm -scale 0.5
//	teatrace -replay lbm.trace -tech TEA -top 5
//	teatrace -replay lbm.trace -tech IBS
//	teatrace -stats lbm.trace
//	teatrace -stats cache/3fd2...a1.tea -json
//
// -stats accepts either a raw trace stream or a tracestore disk-tier
// entry (the TEAC framing and stats envelope are unwrapped
// automatically) and prints the per-record-kind byte histogram, the
// pattern-table hit rate, and the v4-vs-v3 compression ratio.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/pics"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workloads"
)

func main() {
	record := flag.String("record", "", "record the benchmark to this trace file")
	replay := flag.String("replay", "", "replay this trace file")
	stats := flag.String("stats", "", "print codec statistics for this trace file or tracestore entry")
	bench := flag.String("bench", "lbm", "benchmark to record")
	tech := flag.String("tech", "TEA", "technique for replay: TEA, NCI-TEA, IBS, SPE, RIS")
	interval := flag.Uint64("interval", 256, "sampling interval in cycles")
	top := flag.Int("top", 5, "instructions to print after replay")
	scale := flag.Float64("scale", 0.5, "workload size multiplier")
	asJSON := flag.Bool("json", false, "emit -stats output as JSON")
	flag.Parse()
	if *top < 0 {
		fmt.Fprintln(os.Stderr, "teatrace: -top must not be negative")
		os.Exit(2)
	}
	rc := analysis.DefaultRunConfig().WithInterval(*interval)
	rc.Scale = *scale
	if err := rc.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "teatrace:", err)
		os.Exit(2)
	}

	switch {
	case *record != "" && *replay == "" && *stats == "":
		if err := doRecord(*record, *bench, rc); err != nil {
			fmt.Fprintln(os.Stderr, "teatrace:", err)
			os.Exit(1)
		}
	case *replay != "" && *record == "" && *stats == "":
		name := strings.ToLower(*tech)
		if known := analysis.ProfileTechniques(); !slices.Contains(known, name) {
			fmt.Fprintf(os.Stderr, "teatrace: unknown technique %q (known: %s)\n", *tech, strings.Join(known, ", "))
			os.Exit(2)
		}
		if err := doReplay(*replay, name, rc, *top); err != nil {
			fmt.Fprintln(os.Stderr, "teatrace:", err)
			os.Exit(1)
		}
	case *stats != "" && *record == "" && *replay == "":
		if err := doStats(*stats, *asJSON); err != nil {
			fmt.Fprintln(os.Stderr, "teatrace:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: teatrace -record FILE -bench NAME | teatrace -replay FILE -tech NAME | teatrace -stats FILE [-json]")
		os.Exit(2)
	}
}

// unwrapStream accepts a raw v4 trace stream, a tracestore disk-tier
// entry (TEAC framing + stats envelope), or a bare cache entry (stats
// envelope only) and returns the trace stream inside.
func unwrapStream(raw []byte) ([]byte, string) {
	if len(raw) >= 5 && string(raw[:4]) == "TEAT" {
		return raw, "raw trace"
	}
	if _, payload, err := tracestore.PayloadFromDiskEntry(raw); err == nil {
		if _, data, err := analysis.DecodeCachedEntry(payload); err == nil {
			return data, "tracestore disk entry"
		}
	}
	if _, data, err := analysis.DecodeCachedEntry(raw); err == nil {
		return data, "cache entry"
	}
	return raw, "raw trace"
}

func doStats(path string, asJSON bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data, kind := unwrapStream(raw)
	st, err := trace.ScanStats(data)
	if err != nil {
		return err
	}
	if asJSON {
		out := struct {
			*trace.CodecStats
			PatternHitRate   float64 `json:"pattern_hit_rate"`
			CompressionRatio float64 `json:"compression_ratio"`
		}{st, st.PatternHitRate(), st.CompressionRatio()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Printf("%s (%s): %d cycles, %d records in %d blocks\n",
		path, kind, st.TotalCycles, st.Records, st.Blocks)
	fmt.Printf("encoded %d bytes, logical (v3-equivalent) %d bytes -> %.2fx compression\n",
		st.EncodedBytes, st.LogicalBytes, st.CompressionRatio())
	fmt.Printf("pattern table: %d matched of %d records (%.1f%% hit rate), %d match + %d literal tokens\n",
		st.MatchedRecords, st.BlockRecords(), 100*st.PatternHitRate(), st.MatchTokens, st.LitTokens)
	fmt.Printf("\n%-10s %12s %16s\n", "kind", "records", "logical bytes")
	for k, name := range trace.KindNames {
		fmt.Printf("%-10s %12d %16d\n", name, st.KindRecords[k], st.KindBytes[k])
	}
	fmt.Printf("\n%-10s %12s\n", "column", "bytes")
	fmt.Printf("%-10s %12d\n", "tokens", st.TokenBytes)
	for c, name := range trace.ColumnNames {
		fmt.Printf("%-10s %12d\n", name, st.ColumnBytes[c])
	}
	return nil
}

func doRecord(path, bench string, rc analysis.RunConfig) error {
	w, err := workloads.ByName(bench)
	if err != nil {
		return err
	}
	data, stats, err := analysis.CaptureTrace(context.Background(), w.Build(rc.Iters(w)), rc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		return err
	}
	fmt.Printf("recorded %s: %d cycles, %d instructions -> %s (%d bytes, %.1f B/cycle)\n",
		bench, stats.Cycles, stats.Committed, path, len(data), float64(len(data))/float64(stats.Cycles))
	return nil
}

// doReplay replays the trace at path to every technique and prints
// tech, a name ProfileTechniques lists.
func doReplay(path, tech string, rc analysis.RunConfig, top int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// A trace file carries no program, so the run names none.
	br, err := analysis.ReplayCaptured(context.Background(), workloads.Workload{}, nil, rc, data)
	if err != nil {
		return err
	}
	if err := errors.Join(br.Errors["golden"], br.Errors[tech]); err != nil {
		return err
	}
	p := br.Profile(tech)
	// Golden attributes every cycle exactly once, so its total is the
	// trace's cycle count.
	total := br.Golden.Total()
	fmt.Printf("replayed %.0f cycles; %s error vs golden: %.1f%%\n\n",
		total, p.Name, 100*pics.Error(p, br.Golden))
	fmt.Printf("top instructions (%s):\n", p.Name)
	for _, pc := range p.TopInstructions(top) {
		st := p.Insts[pc]
		fmt.Printf("  %#08x  height %6.2f%%\n%s", pc, 100*st.Total()/total, st.RenderBars(total, 40))
	}
	return nil
}
