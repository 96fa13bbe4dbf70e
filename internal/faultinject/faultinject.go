// Package faultinject is the chaos harness for the capture/replay
// pipeline. It deterministically mutates recorded traces (truncation,
// bit flips, record reordering, and v4-codec-targeted damage to
// pattern tables and column boundaries) and builds pathological
// programs (self-loops, never-hitting loads, maximal dependency
// chains), then asserts the pipeline's robustness contract on every
// mutant:
//
//	every fault yields either a byte-identical profile or a typed
//	*simerr.Error — never a panic, never a hang, never a silently
//	wrong result.
//
// All fault generation is seed-controlled, so a failing chaos run is
// reproducible from its (seed, workload) pair alone.
package faultinject

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/pics"
	"repro/internal/program"
	"repro/internal/simerr"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Fault is one mutated trace stream.
type Fault struct {
	// Name identifies the mutation (kind plus position), stable for a
	// given seed.
	Name string
	// Data is the mutated stream; the original capture is not aliased.
	Data []byte
}

// Config sizes one chaos sweep.
type Config struct {
	// Seed drives every random choice in the sweep.
	Seed uint64
	// Truncations caps record-boundary truncations (0 = every boundary).
	Truncations int
	// MidTruncations is the number of mid-record truncations.
	MidTruncations int
	// BitFlips is the number of single-bit-flip mutants.
	BitFlips int
	// Swaps is the number of adjacent-record-swap mutants.
	Swaps int
	// TokenFaults is the number of pattern-table mutants: seeded byte
	// corruptions inside block token spans, where a damaged match token
	// (length or distance) desynchronizes the v4 columnar framing.
	TokenFaults int
	// ColumnFaults is the number of column-boundary mutants: corrupted
	// column length prefixes and cross-column byte swaps, the faults
	// that make one column's bytes parse as another's.
	ColumnFaults int
	// Timeout bounds each mutant replay; a mutant exceeding it counts
	// as a hang, which is a contract violation.
	Timeout time.Duration
}

// DefaultConfig returns the sweep size used by the chaos smoke test.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:           seed,
		Truncations:    64,
		MidTruncations: 16,
		BitFlips:       64,
		Swaps:          16,
		TokenFaults:    32,
		ColumnFaults:   32,
		Timeout:        60 * time.Second,
	}
}

// TraceFaults derives the deterministic mutant set for one capture:
// truncations at (a sample of) record boundaries, truncations inside
// records, single-bit flips at seeded byte positions, and swaps of
// adjacent records. Mutants that happen to equal the original stream
// are skipped.
func TraceFaults(data []byte, cfg Config) ([]Fault, error) {
	offsets, err := trace.RecordOffsets(data)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	var faults []Fault

	// Record-boundary truncations. Cutting at offset 0 of the record
	// list also exercises the bare-header stream.
	cuts := offsets
	if cfg.Truncations > 0 && len(cuts) > cfg.Truncations {
		cuts = make([]int, 0, cfg.Truncations)
		stride := float64(len(offsets)) / float64(cfg.Truncations)
		for i := 0; i < cfg.Truncations; i++ {
			cuts = append(cuts, offsets[int(float64(i)*stride)])
		}
	}
	for _, off := range cuts {
		faults = append(faults, Fault{
			Name: fmt.Sprintf("truncate@%d", off),
			Data: append([]byte(nil), data[:off]...),
		})
	}

	// Mid-record truncations: cut strictly inside a record's bytes.
	for i := 0; i < cfg.MidTruncations; i++ {
		r := rng.Intn(len(offsets))
		end := len(data)
		if r+1 < len(offsets) {
			end = offsets[r+1]
		}
		if end-offsets[r] < 2 {
			continue
		}
		cut := offsets[r] + 1 + rng.Intn(end-offsets[r]-1)
		faults = append(faults, Fault{
			Name: fmt.Sprintf("midtruncate@%d", cut),
			Data: append([]byte(nil), data[:cut]...),
		})
	}

	// Single-bit flips anywhere in the stream, header included.
	for i := 0; i < cfg.BitFlips; i++ {
		pos := rng.Intn(len(data))
		bit := byte(1) << uint(rng.Intn(8))
		mut := append([]byte(nil), data...)
		mut[pos] ^= bit
		faults = append(faults, Fault{
			Name: fmt.Sprintf("bitflip@%d.%d", pos, bit),
			Data: mut,
		})
	}

	// Adjacent-record swaps: well-formed varints, wrong order. The
	// integrity digest is what catches the ones that still decode.
	for i := 0; i < cfg.Swaps && len(offsets) > 2; i++ {
		r := rng.Intn(len(offsets) - 2)
		a, b, c := offsets[r], offsets[r+1], offsets[r+2]
		mut := append([]byte(nil), data[:a]...)
		mut = append(mut, data[b:c]...)
		mut = append(mut, data[a:b]...)
		mut = append(mut, data[c:]...)
		if bytes.Equal(mut, data) {
			continue
		}
		faults = append(faults, Fault{
			Name: fmt.Sprintf("swap@%d", a),
			Data: mut,
		})
	}
	faults = append(faults, codecFaults(data, cfg, rng)...)
	return faults, nil
}

// codecFaults derives the v4-codec-targeted mutants from the stream's
// structural layout: pattern-table corruptions inside block token
// spans, column length-prefix damage, and cross-column byte swaps.
// These are the faults record-level truncation cannot produce — a
// damaged match token or length prefix leaves every byte in place but
// shifts how the decoder slices them, so the contract (typed decode
// error or byte-identical profile, never a silently wrong one) leans
// entirely on the decoder's framing guards and the integrity digest.
func codecFaults(data []byte, cfg Config, rng *rand.Rand) []Fault {
	lay, err := trace.ParseLayout(data)
	if err != nil || len(lay.Blocks) == 0 {
		return nil
	}
	var faults []Fault

	// Pattern-table faults: corrupt a byte inside a seeded block's
	// token span. Half are bit flips (mangled run lengths / match
	// distances), half overwrite with 0xFF (forces a huge varint,
	// usually an out-of-range match distance).
	for i := 0; i < cfg.TokenFaults; i++ {
		b := lay.Blocks[rng.Intn(len(lay.Blocks))]
		if b.TokenSpan.End <= b.TokenSpan.LenStart {
			continue
		}
		pos := b.TokenSpan.LenStart + rng.Intn(b.TokenSpan.End-b.TokenSpan.LenStart)
		mut := append([]byte(nil), data...)
		if i%2 == 0 {
			mut[pos] ^= byte(1) << uint(rng.Intn(8))
		} else {
			mut[pos] = 0xFF
		}
		if bytes.Equal(mut, data) {
			continue
		}
		faults = append(faults, Fault{
			Name: fmt.Sprintf("token@%d", pos),
			Data: mut,
		})
	}

	// Column-boundary faults: alternate between damaging a column's
	// length prefix (the framing itself) and swapping one byte across
	// two columns of the same block (well-formed framing, misplaced
	// content — only per-column validation or the digest can catch it).
	for i := 0; i < cfg.ColumnFaults; i++ {
		b := lay.Blocks[rng.Intn(len(lay.Blocks))]
		ci := rng.Intn(len(b.Columns))
		col := b.Columns[ci]
		mut := append([]byte(nil), data...)
		var name string
		if i%2 == 0 {
			pos := col.LenStart + rng.Intn(max(col.Start-col.LenStart, 1))
			if i%4 == 0 {
				mut[pos] ^= byte(1) << uint(rng.Intn(8))
			} else {
				mut[pos] = 0xFF
			}
			name = fmt.Sprintf("collen@%d", pos)
		} else {
			cj := rng.Intn(len(b.Columns))
			cb := b.Columns[cj]
			if col.End <= col.Start || cb.End <= cb.Start {
				continue
			}
			pa := col.Start + rng.Intn(col.End-col.Start)
			pb := cb.Start + rng.Intn(cb.End-cb.Start)
			mut[pa], mut[pb] = mut[pb], mut[pa]
			name = fmt.Sprintf("colswap@%d.%d", pa, pb)
		}
		if bytes.Equal(mut, data) {
			continue
		}
		faults = append(faults, Fault{Name: name, Data: mut})
	}
	return faults
}

// ProgramFault is one pathological-program scenario: a program built
// to stress a guard, the guard configuration it runs under, and the
// failure kind it must produce (nil = the run must succeed).
type ProgramFault struct {
	Name     string
	Build    func() *program.Program
	Tune     func(rc *analysis.RunConfig)
	WantKind error
}

// PathologicalPrograms returns the guard-stressing scenarios: an
// infinite self-loop (runaway guard), a never-hitting load walk under
// both default guards (must complete — no watchdog false positive) and
// a watchdog tightened below a DRAM stall (must fail loudly as
// deadlock), and a maximal serial dependency chain (must complete).
func PathologicalPrograms() []ProgramFault {
	return []ProgramFault{
		{
			Name: "self-loop",
			Build: func() *program.Program {
				b := program.NewBuilder("chaos-self-loop")
				b.Func("main")
				b.Label("spin")
				b.Jmp("spin")
				b.Halt()
				return b.MustBuild()
			},
			Tune: func(rc *analysis.RunConfig) {
				// Keep the trip fast; the point is the kind, not the bound.
				rc.Core.MaxCycles = 50_000
			},
			WantKind: simerr.ErrRunaway,
		},
		{
			Name:     "never-hit-loads",
			Build:    neverHitLoads,
			Tune:     func(rc *analysis.RunConfig) {},
			WantKind: nil,
		},
		{
			Name:  "never-hit-loads-tight-watchdog",
			Build: neverHitLoads,
			Tune: func(rc *analysis.RunConfig) {
				// Tightened below a DRAM round-trip: the first miss
				// stall must trip the forward-progress watchdog.
				rc.Core.WatchdogCommitCycles = 25
			},
			WantKind: simerr.ErrDeadlock,
		},
		{
			Name: "max-dep-chain",
			Build: func() *program.Program {
				b := program.NewBuilder("chaos-dep-chain")
				b.Func("main")
				b.Movi(isa.X(1), 1)
				b.Movi(isa.X(2), 0)
				b.Movi(isa.X(3), 64)
				b.Label("loop")
				for i := 0; i < 32; i++ {
					b.Mul(isa.X(1), isa.X(1), isa.X(1))
				}
				b.Addi(isa.X(2), isa.X(2), 1)
				b.Blt(isa.X(2), isa.X(3), "loop")
				b.Halt()
				return b.MustBuild()
			},
			Tune:     func(rc *analysis.RunConfig) {},
			WantKind: nil,
		},
	}
}

// neverHitLoads walks a 4 MiB arena with a page-sized stride, so every
// load misses the whole hierarchy — the longest legitimate commit gaps
// the core can produce.
func neverHitLoads() *program.Program {
	b := program.NewBuilder("chaos-never-hit")
	b.Func("main")
	base := b.Alloc(1<<22, 64)
	b.MoviU(isa.X(1), base)
	b.Movi(isa.X(2), 0)
	b.Movi(isa.X(3), 256)
	b.Label("loop")
	b.Load(isa.X(4), isa.X(1), 0)
	b.Addi(isa.X(1), isa.X(1), 4096)
	b.Addi(isa.X(2), isa.X(2), 1)
	b.Blt(isa.X(2), isa.X(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// Outcome is one mutant's disposition.
type Outcome struct {
	// Fault names the mutant or scenario.
	Fault string
	// OK reports whether the robustness contract held.
	OK bool
	// Detail says what happened: "identical", "typed error: ...", or
	// the violation description.
	Detail string
}

// Report summarizes one sweep.
type Report struct {
	Workload   string
	Seed       uint64
	Outcomes   []Outcome
	Violations int
}

func (r *Report) add(fault string, ok bool, detail string) {
	r.Outcomes = append(r.Outcomes, Outcome{Fault: fault, OK: ok, Detail: detail})
	if !ok {
		r.Violations++
	}
}

// fingerprint serializes every technique profile of a run; two runs
// with equal fingerprints produced byte-identical profiles.
func fingerprint(br *analysis.BenchRun) ([]byte, error) {
	var buf bytes.Buffer
	for _, p := range []*pics.Profile{br.Golden, br.TEA, br.NCITEA, br.IBS, br.SPE, br.RIS} {
		if err := p.WriteJSON(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// replayMutant replays one mutated stream with panic containment and a
// hang bound, classifying the result.
//
//tealint:ctxroot the harness owns the hang-bound timeout; a mutant replay must not inherit outer deadlines that would misclassify hangs
func replayMutant(w workloads.Workload, p *program.Program, rc analysis.RunConfig, data []byte, timeout time.Duration, baseline []byte) (ok bool, detail string) {
	defer func() {
		if v := recover(); v != nil {
			ok, detail = false, fmt.Sprintf("VIOLATION: panic escaped the replay boundary: %v", v)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	br, err := analysis.ReplayCaptured(ctx, w, p, rc, data)
	if err != nil {
		if errors.Is(err, simerr.ErrCanceled) {
			return false, fmt.Sprintf("VIOLATION: replay exceeded %v (hang)", timeout)
		}
		var se *simerr.Error
		if !errors.As(err, &se) {
			return false, fmt.Sprintf("VIOLATION: untyped error: %v", err)
		}
		return true, fmt.Sprintf("typed error: %v", se.Kind)
	}
	if len(br.Errors) != 0 {
		return false, fmt.Sprintf("VIOLATION: data fault surfaced as probe errors: %v", br.Errors)
	}
	fp, ferr := fingerprint(br)
	if ferr != nil {
		return false, fmt.Sprintf("VIOLATION: fingerprinting mutant run: %v", ferr)
	}
	if !bytes.Equal(fp, baseline) {
		return false, "VIOLATION: silent corruption — profiles differ from baseline with no error"
	}
	return true, "identical"
}

// Sweep runs the full chaos suite for one workload: a fault-free
// baseline, every trace mutant, and every pathological program. It
// returns an error only when the harness itself cannot run (e.g. the
// baseline capture fails); contract violations are reported in the
// Report, not as an error.
//
//tealint:ctxroot chaos-harness entry point invoked by its CLI, which has no context to thread
func Sweep(w workloads.Workload, rc analysis.RunConfig, cfg Config) (*Report, error) {
	rep := &Report{Workload: w.Name, Seed: cfg.Seed}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}

	p := w.Build(int(float64(w.DefaultIters) * rc.Scale))
	ctx := context.Background()
	data, _, err := analysis.CaptureTrace(ctx, p, rc)
	if err != nil {
		return nil, fmt.Errorf("faultinject: baseline capture: %w", err)
	}
	base, err := analysis.ReplayCaptured(ctx, w, p, rc, data)
	if err != nil {
		return nil, fmt.Errorf("faultinject: baseline replay: %w", err)
	}
	baseline, err := fingerprint(base)
	if err != nil {
		return nil, fmt.Errorf("faultinject: baseline fingerprint: %w", err)
	}

	// The unmutated stream must reproduce the baseline exactly — the
	// sweep's own control.
	ok, detail := replayMutant(w, p, rc, data, cfg.Timeout, baseline)
	rep.add("control-unmutated", ok && detail == "identical", detail)

	faults, err := TraceFaults(data, cfg)
	if err != nil {
		return nil, fmt.Errorf("faultinject: deriving faults: %w", err)
	}
	for _, f := range faults {
		ok, detail := replayMutant(w, p, rc, f.Data, cfg.Timeout, baseline)
		rep.add(f.Name, ok, detail)
	}

	for _, pf := range PathologicalPrograms() {
		prc := rc
		pf.Tune(&prc)
		ok, detail := runPathological(w, pf, prc, cfg.Timeout)
		rep.add("program:"+pf.Name, ok, detail)
	}
	return rep, nil
}

// runPathological executes one guard-stressing program end to end and
// checks its failure kind against the scenario's expectation.
//
//tealint:ctxroot the harness owns the guard timeout; a pathological run must not inherit outer deadlines that would misclassify hangs
func runPathological(w workloads.Workload, pf ProgramFault, rc analysis.RunConfig, timeout time.Duration) (ok bool, detail string) {
	defer func() {
		if v := recover(); v != nil {
			ok, detail = false, fmt.Sprintf("VIOLATION: panic escaped the run boundary: %v", v)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	br, err := analysis.RunProgramContext(ctx, w, pf.Build(), rc)
	switch {
	case pf.WantKind == nil && err == nil:
		if br == nil || br.TEA == nil {
			return false, "VIOLATION: clean run returned an incomplete BenchRun"
		}
		return true, "completed"
	case pf.WantKind == nil:
		return false, fmt.Sprintf("VIOLATION: expected success, got %v", err)
	case err == nil:
		return false, fmt.Sprintf("VIOLATION: expected %v, run succeeded", pf.WantKind)
	case errors.Is(err, simerr.ErrCanceled):
		return false, fmt.Sprintf("VIOLATION: run exceeded %v (hang)", timeout)
	case errors.Is(err, pf.WantKind):
		return true, fmt.Sprintf("typed error: %v", pf.WantKind)
	default:
		return false, fmt.Sprintf("VIOLATION: expected %v, got %v", pf.WantKind, err)
	}
}
