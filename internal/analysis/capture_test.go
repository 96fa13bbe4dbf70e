package analysis

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/simerr"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workloads"
)

func testRC() RunConfig {
	rc := DefaultRunConfig()
	rc.Scale = 0.02
	rc.Interval = 64
	rc.Jitter = 8
	return rc
}

func testProgram(t *testing.T, rc RunConfig) (workloads.Workload, *program.Program) {
	t.Helper()
	w, err := workloads.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	return w, w.Build(rc.iters(w))
}

// TestCaptureKeyFieldSensitivity walks RunConfig with reflection and
// proves that flipping any leaf field — however deeply nested — flips
// the capture key. This is the runtime complement of the cachekey
// analyzer: the analyzer proves every field is mentioned by the digest
// function, this test proves the mentions actually reach the hash.
func TestCaptureKeyFieldSensitivity(t *testing.T) {
	rc := testRC()
	_, p := testProgram(t, rc)
	base := captureKey(p, rc)

	for _, path := range leafFieldPaths(reflect.TypeOf(rc), nil) {
		mutated := rc
		v := reflect.ValueOf(&mutated).Elem().FieldByIndex(path.index)
		if !bumpValue(v) {
			t.Fatalf("field %s: unsupported kind %s — extend bumpValue", path.name, v.Kind())
		}
		if captureKey(p, mutated) == base {
			t.Errorf("mutating RunConfig.%s did not change the capture key", path.name)
		}
	}
}

type fieldPath struct {
	name  string
	index []int
}

func leafFieldPaths(t reflect.Type, prefix []int) []fieldPath {
	var out []fieldPath
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(append([]int(nil), prefix...), i)
		if f.Type.Kind() == reflect.Struct {
			sub := leafFieldPaths(f.Type, idx)
			for j := range sub {
				sub[j].name = f.Name + "." + sub[j].name
			}
			out = append(out, sub...)
			continue
		}
		out = append(out, fieldPath{name: f.Name, index: idx})
	}
	return out
}

// bumpValue mutates v to a different valid value, reporting false for
// kinds it does not know (so new field kinds fail the test loudly
// instead of passing vacuously).
func bumpValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*2 + 1.5)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Int {
			v.Set(reflect.Append(v, reflect.ValueOf(99)))
			return true
		}
		return false
	default:
		return false
	}
	return true
}

// TestCaptureKeyFormatVersionSensitivity pins cache invalidation on a
// codec change: the capture key hashes trace.FormatVersion first, so a
// process running the v4 columnar codec can never be served a v3-era
// disk entry — their keys differ. The reflection walk above cannot
// mutate a package constant, so this re-derives the key under the
// retired version number and checks it moved, and pins the current
// version so a future bump is a deliberate act (new committed codec
// baselines, not a silent cache flush).
func TestCaptureKeyFormatVersionSensitivity(t *testing.T) {
	if trace.FormatVersion != 4 {
		t.Fatalf("trace.FormatVersion = %d, want 4 — a version bump must update this pin and the committed BENCH_*_codec.json baselines", trace.FormatVersion)
	}
	rc := testRC()
	_, p := testProgram(t, rc)
	base := captureKey(p, rc)

	h := tracestore.NewHasher()
	h.Uint(trace.FormatVersion - 1) // the retired v3 in an otherwise identical key
	h.Program(p)
	h.Uint(rc.Interval)
	h.Uint(rc.Jitter)
	h.Uint(rc.Seed)
	h.Float(rc.Scale)
	h.CPUConfig(rc.Core)
	h.Uint(0)
	h.Uint(0)
	if h.Sum() == base {
		t.Error("capture key is not sensitive to trace.FormatVersion — a codec change would serve stale cached captures")
	}
}

// TestCaptureKeyProgramSensitivity: the key must also cover the program
// itself — contents, name, data image, and function table.
func TestCaptureKeyProgramSensitivity(t *testing.T) {
	rc := testRC()
	_, p := testProgram(t, rc)
	base := captureKey(p, rc)

	mutations := map[string]func(q *program.Program){
		"name":          func(q *program.Program) { q.Name += "x" },
		"instruction":   func(q *program.Program) { q.Insts[0].Imm++ },
		"inst-appended": func(q *program.Program) { q.Insts = append(q.Insts, isa.Inst{}) },
		"data-value": func(q *program.Program) {
			for a := range q.Data {
				q.Data[a]++
				return
			}
			q.Data[1] = 1
		},
		"function-bounds": func(q *program.Program) { q.Funcs[0].End++ },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			q := *p
			q.Insts = append([]isa.Inst(nil), p.Insts...)
			q.Funcs = append([]program.Function(nil), p.Funcs...)
			q.Data = make(map[uint64]uint64, len(p.Data))
			for a, v := range p.Data {
				q.Data[a] = v
			}
			mutate(&q)
			if captureKey(&q, rc) == base {
				t.Errorf("program mutation %q did not change the capture key", name)
			}
		})
	}
}

// TestCaptureKeyGolden pins two capture keys as hex, so a change to the
// Hasher (its buffering, say) that altered the byte stream it hashes —
// and with it every key a disk tier holds — fails here. mcf at scale
// 0.25 exercises a 32,768-word data image; exchange2 at 4 iterations
// has none.
func TestCaptureKeyGolden(t *testing.T) {
	rc := DefaultRunConfig()
	rc.Scale = 0.25
	mcf, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := workloads.ByName("exchange2")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p    *program.Program
		want string
	}{
		{mcf.Build(rc.iters(mcf)), "5540e9c988015c06d187620e7ba25e775c4db711ba482223894336c337f3ab2d"},
		{ex.Build(4), "baacf5594bdc27aa5259a0b2ca1f8da8c50925b9631dc42a59eae491e59683df"},
	} {
		if got := captureKey(tc.p, captureConfig(rc)).String(); got != tc.want {
			t.Errorf("%s: capture key %s, want %s", tc.p.Name, got, tc.want)
		}
	}
}

// TestProfileKeyFieldSensitivity is the reflection walk of
// TestCaptureKeyFieldSensitivity for the profile memo's key: every
// RunConfig leaf must move it except Scale (already in the program),
// which must not. The program and the technique name must move it too.
func TestProfileKeyFieldSensitivity(t *testing.T) {
	rc := testRC()
	_, p := testProgram(t, rc)
	base := NewProfileKey(p, rc)
	ignored := map[string]bool{"Scale": true}
	for _, path := range leafFieldPaths(reflect.TypeOf(rc), nil) {
		mutated := rc
		v := reflect.ValueOf(&mutated).Elem().FieldByIndex(path.index)
		if !bumpValue(v) {
			t.Fatalf("field %s: unsupported kind %s — extend bumpValue", path.name, v.Kind())
		}
		if moved := NewProfileKey(p, mutated) != base; moved == ignored[path.name] {
			t.Errorf("mutating RunConfig.%s: key moved = %v, want %v", path.name, moved, !ignored[path.name])
		}
	}
	q := *p
	q.Name += "x"
	if NewProfileKey(&q, rc) == base {
		t.Error("profile key is not sensitive to the program")
	}
	if base.Technique("tea") == base.Technique("ibs") {
		t.Error("profile key is not sensitive to the technique")
	}
}

// TestCaptureSharedAcrossSamplingKnobs pins the tentpole dedup insight:
// the captured stream is sampling-independent, so configs differing
// only in Interval/Jitter/Seed/Scale share one capture.
func TestCaptureSharedAcrossSamplingKnobs(t *testing.T) {
	rc := testRC()
	w, p := testProgram(t, rc)
	prev := SetTraceStore(NewTraceStore(DefaultStoreBudget, ""))
	defer SetTraceStore(prev)

	start := CaptureCount()
	RunProgram(w, p, rc)
	for _, iv := range []uint64{32, 96, 128} {
		RunProgram(w, p, SweepConfig(rc, iv))
	}
	if got := CaptureCount() - start; got != 1 {
		t.Fatalf("4 runs differing only in sampling knobs performed %d captures; want 1", got)
	}
}

// TestRunGridSharedKeyCapturesOnce: grid cells that share a capture key
// run side by side on the worker pool and still share one simulation,
// because the store's singleflight is the grid's only dedupe.
func TestRunGridSharedKeyCapturesOnce(t *testing.T) {
	rc := testRC()
	w, p := testProgram(t, rc)
	prev := SetTraceStore(NewTraceStore(DefaultStoreBudget, ""))
	defer SetTraceStore(prev)

	job := newCaptureJob(w, p, rc)
	start := CaptureCount()
	runs := runGrid(context.Background(), []captureJob{job, job, job, job}, []RunConfig{rc}, techniques)[0]
	if got := CaptureCount() - start; got != 1 {
		t.Fatalf("4 cells sharing one capture key performed %d captures; want 1", got)
	}
	for i, br := range runs[1:] {
		if !bytes.Equal(renderJSON(t, br.TEA), renderJSON(t, runs[0].TEA)) {
			t.Errorf("cell %d: TEA profile differs from cell 0's", i+1)
		}
	}
}

// TestCaptureCancellation covers the cancellation contract of the
// cached capture path: a canceled capture surfaces as a typed
// ErrCanceled, leaves no partial trace-store entry behind, and reserves
// nothing, so the same key captures cleanly afterwards.
func TestCaptureCancellation(t *testing.T) {
	rc := testRC()
	w, err := workloads.ByName("deepsjeng")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(rc.iters(w))

	prev := SetTraceStore(NewTraceStore(DefaultStoreBudget, ""))
	defer SetTraceStore(prev)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
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

	if _, _, err := newCaptureJob(w, p, rc).capture(context.Background()); err != nil {
		t.Fatalf("capture after canceled attempt: %v", err)
	}
	if _, ok := TraceStore().Get(captureKey(p, captureConfig(rc))); !ok {
		t.Error("successful capture did not populate the store")
	}
}

// TestDiskTierSecondRunSimulatesNothing is the acceptance criterion for
// the persistent tier: a second process (modeled as a second store over
// the same directory, memory tier cold) runs the same experiments with
// zero simulations.
func TestDiskTierSecondRunSimulatesNothing(t *testing.T) {
	rc := testRC()
	w, p := testProgram(t, rc)
	dir := t.TempDir()

	prev := SetTraceStore(NewTraceStore(DefaultStoreBudget, dir))
	defer SetTraceStore(prev)
	start := CaptureCount()
	first := RunProgram(w, p, rc)
	if got := CaptureCount() - start; got != 1 {
		t.Fatalf("first run performed %d captures; want 1", got)
	}

	// Fresh store, same directory: the "second teaexp invocation".
	SetTraceStore(NewTraceStore(DefaultStoreBudget, dir))
	start = CaptureCount()
	second := RunProgram(w, p, rc)
	if got := CaptureCount() - start; got != 0 {
		t.Fatalf("second run with a warm disk tier performed %d captures; want 0", got)
	}
	if st := TraceStore().Snapshot(); st.DiskHits != 1 {
		t.Fatalf("store stats %+v; want exactly 1 disk hit", st)
	}

	a, b := new(bytes.Buffer), new(bytes.Buffer)
	if err := first.TEA.WriteJSON(a); err != nil {
		t.Fatal(err)
	}
	if err := second.TEA.WriteJSON(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("disk-tier replay produced a different TEA profile than the capturing run")
	}
}

// TestCorruptDiskEntryRecaptures: a damaged cache file must be invisible
// to the experiment — the run recaptures and succeeds; no decode error
// reaches the caller.
func TestCorruptDiskEntryRecaptures(t *testing.T) {
	rc := testRC()
	w, p := testProgram(t, rc)
	dir := t.TempDir()

	prev := SetTraceStore(NewTraceStore(DefaultStoreBudget, dir))
	defer SetTraceStore(prev)
	RunProgram(w, p, rc)

	key := captureKey(p, captureConfig(rc))
	path := filepath.Join(dir, key.String()+".tea")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("expected persisted entry at %s: %v", path, err)
	}
	raw[len(raw)/2] ^= 0xFF // corrupt the payload mid-stream
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	SetTraceStore(NewTraceStore(DefaultStoreBudget, dir))
	start := CaptureCount()
	br, err := RunProgramContext(context.Background(), w, p, rc)
	if err != nil {
		t.Fatalf("corrupt cache entry surfaced as an error: %v", err)
	}
	if br == nil || br.TEA == nil {
		t.Fatal("corrupt cache entry produced an incomplete run")
	}
	if got := CaptureCount() - start; got != 1 {
		t.Fatalf("run against a corrupt entry performed %d captures; want 1 (recapture)", got)
	}
	if st := TraceStore().Snapshot(); st.DiskRejects != 1 {
		t.Fatalf("store stats %+v; want exactly 1 disk reject", st)
	}
}

// TestSweepConfigSeedRecorded pins satellite invariant 6: every
// frequency-sweep point runs its samplers under a deterministic seed
// derived from (base seed, interval), distinct across intervals, and
// the derived seed is visible in the emitted Profile JSON.
func TestSweepConfigSeedRecorded(t *testing.T) {
	rc := testRC()
	w, p := testProgram(t, rc)
	prev := SetTraceStore(NewTraceStore(DefaultStoreBudget, ""))
	defer SetTraceStore(prev)

	seen := map[uint64]bool{}
	for _, iv := range []uint64{64, 128, 256} {
		cfg := SweepConfig(rc, iv)
		want := SweepSeed(rc.Seed, iv)
		if cfg.Seed != want {
			t.Fatalf("interval %d: SweepConfig seed %d, SweepSeed %d", iv, cfg.Seed, want)
		}
		if want == rc.Seed {
			t.Errorf("interval %d: derived seed equals the base seed", iv)
		}
		if seen[want] {
			t.Fatalf("interval %d: seed %d collides with another interval", iv, want)
		}
		seen[want] = true

		br := RunProgram(w, p, cfg)
		var buf bytes.Buffer
		if err := br.TEA.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(buf.Bytes(), []byte(fmt.Sprintf(`"seed": %d`, want))) {
			t.Errorf("interval %d: TEA profile JSON does not record derived seed %d", iv, want)
		}
	}
}
