package analysis

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/pics"
	"repro/internal/simerr"
)

func renderJSON(t *testing.T, p *pics.Profile) []byte {
	t.Helper()
	if p == nil {
		t.Fatal("nil profile")
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSelectiveReplayByteIdentical pins the registry's contract: a
// technique replayed alone, or with a subset of the others, renders
// byte-identically to the same technique in the full nine-probe run,
// and the techniques that were not asked for stay empty.
func TestSelectiveReplayByteIdentical(t *testing.T) {
	rc := testRC()
	w, p := testProgram(t, rc)
	full, err := RunProgramContext(context.Background(), w, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	subsets := [][]string{{"ris", "tea"}}
	for _, name := range ProfileTechniques() {
		subsets = append(subsets, []string{name})
	}
	if len(subsets) != 7 {
		t.Fatalf("ProfileTechniques() = %v, want the six profiling techniques", ProfileTechniques())
	}
	for _, names := range subsets {
		br, err := RunTechniquesContext(context.Background(), w, p, rc, names)
		if err != nil {
			t.Fatalf("%v: %v", names, err)
		}
		if len(br.Errors) != 0 || br.Stats == nil || br.Stats.Cycles != full.Stats.Cycles {
			t.Fatalf("%v: errors %v, stats %+v", names, br.Errors, br.Stats)
		}
		asked := map[string]bool{}
		for _, name := range names {
			asked[name] = true
			if !bytes.Equal(renderJSON(t, br.Profile(name)), renderJSON(t, full.Profile(name))) {
				t.Errorf("%v: selective %s profile differs from the full run", names, name)
			}
		}
		for _, name := range ProfileTechniques() {
			if !asked[name] && br.Profile(name) != nil {
				t.Errorf("%v: unrequested %s profile was produced", names, name)
			}
		}
		if br.Counters != nil || br.Events != nil || br.Stalls != nil {
			t.Errorf("%v: unrequested statistics probes ran", names)
		}
	}
}

// TestSelectiveReplayUnknownTechnique: a name outside the registry is a
// typed configuration error, not a silently empty run.
func TestSelectiveReplayUnknownTechnique(t *testing.T) {
	rc := testRC()
	w, p := testProgram(t, rc)
	br, err := RunTechniquesContext(context.Background(), w, p, rc, []string{"tea", "perf"})
	if br != nil || !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("got %v, %v; want nil and ErrInvalidConfig", br, err)
	}
}

// TestSelectiveReplayEmptyList: asking for no technique is a typed
// configuration error raised before anything is captured, not a
// simulation that feeds zero probes.
func TestSelectiveReplayEmptyList(t *testing.T) {
	rc := testRC()
	w, p := testProgram(t, rc)
	prev := SetTraceStore(NewTraceStore(DefaultStoreBudget, ""))
	defer SetTraceStore(prev)
	start := CaptureCount()
	br, err := RunTechniquesContext(context.Background(), w, p, rc, nil)
	if br != nil || !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("got %v, %v; want nil and ErrInvalidConfig", br, err)
	}
	if got := CaptureCount() - start; got != 0 {
		t.Fatalf("empty technique list performed %d captures; want 0", got)
	}
}

// TestUnrequestedPanickingProbeContained: a probe nobody asked for that
// panics mid-replay, in any hook, voids only itself; the requested
// technique still renders byte-identically to a clean run.
func TestUnrequestedPanickingProbeContained(t *testing.T) {
	rc := testRC()
	w, p := testProgram(t, rc)
	sel, err := selectTechniques([]string{"tea"})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := RunTechniquesContext(context.Background(), w, p, rc, []string{"tea"})
	if err != nil {
		t.Fatal(err)
	}
	for _, hook := range panicHooks {
		t.Run(hook, func(t *testing.T) {
			checkContained(t, w, p, rc, sel, clean, chaosTechnique("chaos-probe", hook))
		})
	}
}
