package analysis

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/simerr"
	"repro/internal/workloads"
)

func robustWorkload(t *testing.T) workloads.Workload {
	t.Helper()
	w, err := workloads.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// panicProbe blows up in one hook once that hook has fired more than
// after times.
type panicProbe struct {
	cpu.BaseProbe
	hook  string
	after int
	calls int
}

func (p *panicProbe) fire(hook string) {
	if hook != p.hook {
		return
	}
	if p.calls++; p.calls > p.after {
		panic("probe exploded in " + hook)
	}
}

func (p *panicProbe) OnCycle(*cpu.CycleInfo)     { p.fire("OnCycle") }
func (p *panicProbe) OnFetch(cpu.Ref, uint64)    { p.fire("OnFetch") }
func (p *panicProbe) OnDispatch(cpu.Ref, uint64) { p.fire("OnDispatch") }
func (p *panicProbe) OnCommit(cpu.Ref, uint64)   { p.fire("OnCommit") }
func (p *panicProbe) OnDone(uint64)              { p.fire("OnDone") }

// panicHooks are the hooks a chaos probe can blow up in: the
// per-record hooks mid-replay, OnDone at the end of the stream.
var panicHooks = []string{"OnCycle", "OnFetch", "OnDispatch", "OnCommit", "OnDone"}

// chaosTechnique is a technique whose probe panics in hook. Every
// replay, and every rebuild after a failure, builds a fresh probe.
func chaosTechnique(name, hook string) technique {
	after := 100
	if hook == "OnDone" {
		after = 0
	}
	return technique{name: name, probe: func(RunConfig) cpu.Probe {
		return &panicProbe{hook: hook, after: after}
	}}
}

// checkContained replays p to sel plus the extra chaos techniques.
// Exactly the extras must fail, each with a typed ErrInternal naming
// it, and every selected technique's result must match the clean run
// byte for byte.
func checkContained(t *testing.T, w workloads.Workload, p *program.Program, rc RunConfig, sel []technique, clean *BenchRun, extra ...technique) {
	t.Helper()
	br, err := newCaptureJob(w, p, rc).run(context.Background(), rc, slices.Concat(sel, extra))
	if err != nil {
		t.Fatalf("run with panicking probe must not fail outright: %v", err)
	}
	if len(br.Errors) != len(extra) {
		t.Fatalf("errors %v, want only the %d chaos probes", br.Errors, len(extra))
	}
	for _, x := range extra {
		var se *simerr.Error
		if !errors.As(br.Errors[x.name], &se) || se.Kind != simerr.ErrInternal || se.Snap.Technique != x.name {
			t.Fatalf("%s error = %v, want ErrInternal naming it", x.name, br.Errors[x.name])
		}
	}
	for _, tech := range sel {
		if tech.stats == nil && !bytes.Equal(renderJSON(t, br.Profile(tech.name)), renderJSON(t, clean.Profile(tech.name))) {
			t.Errorf("%s profile differs from the clean run", tech.name)
		}
	}
	if !reflect.DeepEqual([]any{br.Counters, br.Events, br.Stalls}, []any{clean.Counters, clean.Events, clean.Stalls}) {
		t.Errorf("statistics probes differ from the clean run")
	}
}

// TestPanickingProbeContained is the regression test for the
// goroutine-panic bug: a probe that panics during replay used to kill
// the whole process (panic in a bare goroutine). Now it must only void
// its own technique, whichever hook it panics in, while the other nine
// render byte-identically to a clean run.
func TestPanickingProbeContained(t *testing.T) {
	w := robustWorkload(t)
	rc := testConfig()
	rc.Scale = 0.05
	p := w.Build(rc.iters(w))
	clean, err := RunProgramContext(context.Background(), w, p, rc)
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	for _, hook := range panicHooks {
		t.Run(hook, func(t *testing.T) {
			checkContained(t, w, p, rc, techniques, clean, chaosTechnique("chaos-probe", hook))
		})
	}
	t.Run("two-probes", func(t *testing.T) {
		checkContained(t, w, p, rc, techniques, clean,
			chaosTechnique("chaos-commit", "OnCommit"), chaosTechnique("chaos-cycle", "OnCycle"))
	})
	// A panic stops its run short of the integrity digest, so a corrupt
	// stream must still fail the replay — also when the panicking probe
	// is the only one replayed.
	t.Run("corrupt-stream", func(t *testing.T) {
		data, _, err := CaptureTrace(context.Background(), p, rc)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		chaos := chaosTechnique("chaos-probe", "OnCommit")
		for _, sel := range [][]technique{slices.Concat(techniques, []technique{chaos}), {chaos}} {
			br, err := replay(context.Background(), w, p, rc, data, sel)
			if br != nil || !errors.Is(err, simerr.ErrDecode) {
				t.Errorf("%d techniques: got %v, %v; want nil and ErrDecode", len(sel), br, err)
			}
		}
	})
}

// TestRunGridNamesPanickingTechnique: a technique that panics in a grid
// cell fails the grid with a typed error naming that technique and the
// cell's workload, whether the technique is the registry's or a
// study's own.
func TestRunGridNamesPanickingTechnique(t *testing.T) {
	w := robustWorkload(t)
	rc := testConfig()
	rc.Scale = 0.05
	jobs := []captureJob{newCaptureJob(w, w.Build(rc.iters(w)), rc)}
	sel := []technique{*techniqueByName("golden"), chaosTechnique("chaos-probe", "OnCommit")}
	defer func() {
		v := recover()
		se, ok := v.(*simerr.Error)
		if !ok || se.Kind != simerr.ErrInternal || se.Snap.Technique != "chaos-probe" || se.Snap.Workload != w.Name {
			t.Fatalf("recovered %T (%v), want an ErrInternal naming chaos-probe on %s", v, v, w.Name)
		}
	}()
	runGrid(context.Background(), jobs, []RunConfig{rc}, sel)
	t.Fatal("runGrid should have panicked")
}

// TestCancellationDeterminism pins the no-partial-profile contract:
// cancelling RunProgramContext yields a typed ErrCanceled that unwraps
// to context.Canceled, and a nil BenchRun — regardless of when the
// cancellation lands.
func TestCancellationDeterminism(t *testing.T) {
	w := robustWorkload(t)
	rc := testConfig()
	p := w.Build(rc.iters(w))

	// Cancelled before the run even starts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	br, err := RunProgramContext(ctx, w, p, rc)
	if br != nil {
		t.Fatalf("cancelled run returned a BenchRun")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if !errors.Is(err, simerr.ErrCanceled) {
		t.Fatalf("err = %v, want simerr.ErrCanceled kind", err)
	}

	// Cancelled mid-run from another goroutine: still no partial
	// result, same typed error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go cancel2()
	br, err = RunProgramContext(ctx2, w, p, rc)
	if err == nil {
		// The race can legitimately finish the run before the cancel
		// lands; that must yield a complete, error-free BenchRun.
		if br == nil || len(br.Errors) != 0 || br.TEA == nil {
			t.Fatalf("uncancelled run incomplete: br=%v", br)
		}
		return
	}
	if br != nil {
		t.Fatalf("cancelled run returned a BenchRun alongside %v", err)
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, simerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestRunProgramPanicsTyped pins the legacy wrapper's behavior: a
// failing run panics with a *simerr.Error, not a bare string.
func TestRunProgramPanicsTyped(t *testing.T) {
	w := robustWorkload(t)
	rc := testConfig()
	rc.Scale = 0.05
	rc.Core.MaxCycles = 10 // guaranteed runaway
	p := w.Build(rc.iters(w))
	defer func() {
		v := recover()
		se, ok := v.(*simerr.Error)
		if !ok {
			t.Fatalf("recovered %T (%v), want *simerr.Error", v, v)
		}
		if se.Kind != simerr.ErrRunaway {
			t.Fatalf("kind = %v, want ErrRunaway", se.Kind)
		}
	}()
	RunProgram(w, p, rc)
	t.Fatal("RunProgram should have panicked")
}

// TestRunConfigValidate drives the run-config check every front end
// shares: each bad interval, jitter or scale is a typed
// ErrInvalidConfig, and the defaults and the boundary values pass.
func TestRunConfigValidate(t *testing.T) {
	with := func(f func(*RunConfig)) RunConfig {
		rc := DefaultRunConfig()
		f(&rc)
		return rc
	}
	cases := []struct {
		name string
		rc   RunConfig
		ok   bool
	}{
		{"defaults", DefaultRunConfig(), true},
		{"jitter equal to interval", with(func(rc *RunConfig) { rc.Interval, rc.Jitter = 10, 10 }), true},
		{"tiny scale", with(func(rc *RunConfig) { rc.Scale = 1e-300 }), true},
		{"large scale", with(func(rc *RunConfig) { rc.Scale = 1e14 }), true},
		{"zero interval", with(func(rc *RunConfig) { rc.Interval, rc.Jitter = 0, 0 }), false},
		{"jitter above interval", with(func(rc *RunConfig) { rc.Interval, rc.Jitter = 10, 100 }), false},
		{"zero scale", with(func(rc *RunConfig) { rc.Scale = 0 }), false},
		{"negative scale", with(func(rc *RunConfig) { rc.Scale = -1 }), false},
		{"NaN scale", with(func(rc *RunConfig) { rc.Scale = math.NaN() }), false},
		{"Inf scale", with(func(rc *RunConfig) { rc.Scale = math.Inf(1) }), false},
		{"overflowing scale", with(func(rc *RunConfig) { rc.Scale = 1e19 }), false},
		{"huge scale", with(func(rc *RunConfig) { rc.Scale = 1e300 }), false},
	}
	for _, tc := range cases {
		err := tc.rc.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, simerr.ErrInvalidConfig) {
			t.Errorf("%s: got %v, want a typed ErrInvalidConfig", tc.name, err)
		}
	}
}
