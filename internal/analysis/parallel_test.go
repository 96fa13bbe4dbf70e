package analysis

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/simerr"
	"repro/internal/workloads"
)

// TestParallelCaptureByteIdentity is the tentpole gate: for every suite
// workload, interval-parallel capture must return byte-for-byte the
// same trace stream and the same statistics as serial capture —
// whether a workload's segments pass fingerprint verification and are
// stitched, or fail it and fall back to a serial run. The parallel path
// may only ever change wall-clock time.
func TestParallelCaptureByteIdentity(t *testing.T) {
	rc := testRC()
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build(rc.iters(w))
			serial, sstats, err := CaptureTrace(context.Background(), p, captureConfig(rc))
			if err != nil {
				t.Fatalf("serial capture: %v", err)
			}
			interval := sstats.Committed / 4
			par, pstats, err := CaptureTraceCheckpointed(context.Background(), p, captureConfig(rc), interval, 3)
			if err != nil {
				t.Fatalf("parallel capture: %v", err)
			}
			if !bytes.Equal(serial, par) {
				t.Errorf("stitched trace differs from serial: %d vs %d bytes", len(serial), len(par))
			}
			if *sstats != *pstats {
				t.Errorf("stats differ:\nserial   %+v\nparallel %+v", *sstats, *pstats)
			}
		})
	}
}

// TestParallelCaptureConverges pins that the functional-warming pass is
// good enough to actually parallelize — not merely fall back — on
// workloads whose divergence classes it models. A regression here means
// the Warmer or the fingerprint lost fidelity and every capture
// silently pays serial cost twice.
func TestParallelCaptureConverges(t *testing.T) {
	rc := testRC()
	for _, name := range []string{"exchange2", "mcf", "perlbench", "povray"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build(rc.iters(w))
		_, sstats, err := CaptureTrace(context.Background(), p, captureConfig(rc))
		if err != nil {
			t.Fatalf("%s: serial capture: %v", name, err)
		}
		fb0, pc0 := ParallelFallbacks(), ParallelCaptures()
		if _, _, err := CaptureTraceCheckpointed(context.Background(), p, captureConfig(rc), sstats.Committed/4, 3); err != nil {
			t.Fatalf("%s: parallel capture: %v", name, err)
		}
		if got := ParallelFallbacks() - fb0; got != 0 {
			t.Errorf("%s: fell back to serial capture %d times; want stitched", name, got)
		}
		if got := ParallelCaptures() - pc0; got != 1 {
			t.Errorf("%s: %d stitched captures; want 1", name, got)
		}
	}
}

// TestParallelCaptureWarmupTolerance makes the warmup window's role
// explicit: the functional warmer approximates timing-dependent state
// (issue-order cache touches, store-drain backlog), the cycle-accurate
// warmup window absorbs the approximation, and the fingerprint chain is
// what decides whether it absorbed enough. With warmup deliberately cut
// to almost nothing the chain must detect the residue on at least one
// workload and the output must STILL be byte-identical via fallback.
func TestParallelCaptureWarmupTolerance(t *testing.T) {
	rc := testRC()
	brokeChain := false
	for _, name := range []string{"x264", "lbm", "bwaves"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build(rc.iters(w))
		_, sstats, err := CaptureTrace(context.Background(), p, captureConfig(rc))
		if err != nil {
			t.Fatalf("%s: serial capture: %v", name, err)
		}
		gen, err := checkpoint.Generate(context.Background(), p, rc.Core,
			checkpoint.Plan{Interval: sstats.Committed / 4, Warmup: 2})
		if err != nil {
			t.Fatalf("%s: generate: %v", name, err)
		}
		if len(gen.Checkpoints) == 0 {
			t.Fatalf("%s: no checkpoints at interval %d", name, sstats.Committed/4)
		}
		if gen.Plan.Warmup != 2 {
			t.Fatalf("%s: explicit warmup not honored: %d", name, gen.Plan.Warmup)
		}
		segs, err := captureSegments(context.Background(), p, rc.Core, gen, 2)
		if err != nil {
			t.Fatalf("%s: segments: %v", name, err)
		}
		for s := 1; s < len(segs); s++ {
			if segs[s-1].endFP != segs[s].startFP {
				brokeChain = true
			}
		}
	}
	if !brokeChain {
		t.Errorf("a 2-instruction warmup converged everywhere; the fingerprint " +
			"chain is not discriminating and cannot be trusted to gate stitching")
	}
}

// TestParallelCaptureCancellation covers the mid-interval cancellation
// contract: a context canceled while workers are mid-segment must
// surface as a typed ErrCanceled — not as a fallback serial capture,
// not as a mangled trace — and the cached capture path must leave no
// partial trace-store entry behind.
func TestParallelCaptureCancellation(t *testing.T) {
	rc := testRC()
	rc.CheckpointInterval = 500
	rc.CaptureWorkers = 2
	w, err := workloads.ByName("deepsjeng")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(rc.iters(w))

	prev := SetTraceStore(NewTraceStore(DefaultStoreBudget, ""))
	defer SetTraceStore(prev)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first worker steps: every segment must abort
	_, _, err = newCaptureJob(w, p, rc).capture(ctx)
	if err == nil {
		t.Fatal("capture with canceled context succeeded")
	}
	var se *simerr.Error
	if !errors.As(err, &se) || !errors.Is(err, simerr.ErrCanceled) {
		t.Fatalf("want typed ErrCanceled, got %v", err)
	}
	if _, ok := TraceStore().Get(captureKey(p, captureConfig(rc))); ok {
		t.Error("canceled capture left a partial trace-store entry")
	}

	// The same key must still be capturable afterwards: the aborted
	// attempt reserved nothing.
	if _, _, err := newCaptureJob(w, p, rc).capture(context.Background()); err != nil {
		t.Fatalf("capture after canceled attempt: %v", err)
	}
	if _, ok := TraceStore().Get(captureKey(p, captureConfig(rc))); !ok {
		t.Error("successful capture did not populate the store")
	}
}

// TestParallelCaptureCountsOncePerWorkload pins the accounting
// contract: CaptureCount counts simulations of workloads, not interval
// segments — a parallel capture split into N segments is still one
// capture, and a store hit is still zero.
func TestParallelCaptureCountsOncePerWorkload(t *testing.T) {
	rc := testRC()
	rc.CheckpointInterval = 500
	rc.CaptureWorkers = 3
	w, err := workloads.ByName("deepsjeng")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(rc.iters(w))

	prev := SetTraceStore(NewTraceStore(DefaultStoreBudget, ""))
	defer SetTraceStore(prev)

	start := CaptureCount()
	if _, _, err := newCaptureJob(w, p, rc).capture(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := CaptureCount() - start; got != 1 {
		t.Errorf("parallel capture incremented CaptureCount by %d; want 1 (per workload, not per segment)", got)
	}
	if _, _, err := newCaptureJob(w, p, rc).capture(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := CaptureCount() - start; got != 1 {
		t.Errorf("store hit incremented CaptureCount (total %d); hits must not count", got)
	}

	// Serial and parallel captures of the same (program, core) must
	// share one cache entry: the checkpoint knobs steer how a capture is
	// produced, never what it contains.
	src := rc
	src.CheckpointInterval, src.CaptureWorkers = 0, 0
	if _, _, err := newCaptureJob(w, p, src).capture(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := CaptureCount() - start; got != 1 {
		t.Errorf("serial capture of the same program re-simulated (total %d); want shared entry", got)
	}
}
