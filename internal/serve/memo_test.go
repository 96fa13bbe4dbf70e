package serve

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/program"
	"repro/internal/simerr"
	"repro/internal/workloads"
)

// runningServer builds a memory-only server and runs its worker pool
// until the test ends.
func runningServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		s.Run(ctx)
		close(done)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return s
}

// runRequest admits req on s and waits for the job to finish.
func runRequest(t *testing.T, s *Server, req JobRequest) *job {
	t.Helper()
	j, err := s.buildJob(&req)
	if err != nil {
		t.Fatalf("buildJob: %v", err)
	}
	if ok, _ := s.register(j); !ok {
		t.Fatal("queue full")
	}
	for {
		ch := j.watch()
		if v := j.view(false); v.Status.Terminal() {
			if v.Status != StatusDone {
				t.Fatalf("job %s ended %s: %+v", j.id, v.Status, v.Error)
			}
			return j
		}
		<-ch
	}
}

func u64(v uint64) *uint64 { return &v }

// scaled is a small mcf request for techniques.
func scaled(techniques ...string) JobRequest {
	scale := 0.05
	return JobRequest{Workload: "mcf", Config: &ConfigSpec{Scale: &scale}, Techniques: techniques}
}

// TestRepeatedJobServedFromMemo: a second identical job is served from
// the server's profile memo — no trace-store call, no replay — with the
// very bytes the first job rendered.
func TestRepeatedJobServedFromMemo(t *testing.T) {
	s := runningServer(t)
	first := runRequest(t, s, scaled("tea", "ibs"))

	store0, memo0 := analysis.TraceStore().Snapshot(), s.memo.Snapshot()
	second := runRequest(t, s, scaled("tea", "ibs"))
	store1, memo1 := analysis.TraceStore().Snapshot(), s.memo.Snapshot()

	if store1.Hits != store0.Hits || store1.Misses != store0.Misses || store1.Puts != store0.Puts {
		t.Errorf("repeated job touched the trace store: %+v -> %+v", store0, store1)
	}
	if memo1.Hits-memo0.Hits != 2 || memo1.Misses != memo0.Misses {
		t.Errorf("memo traffic %+v -> %+v, want 2 hits and no miss", memo0, memo1)
	}
	for _, name := range []string{"tea", "ibs"} {
		a, _, _ := first.profileBytes(name)
		b, _, _ := second.profileBytes(name)
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: repeated job's profile differs from the first job's", name)
		}
	}
}

// TestMemoMissesOnChangedRequest: changing any input that shapes a
// profile — seed, interval, jitter, technique, program — misses the
// memo and replays.
func TestMemoMissesOnChangedRequest(t *testing.T) {
	s := runningServer(t)
	runRequest(t, s, scaled("tea"))
	variants := map[string]func(r *JobRequest){
		"seed":      func(r *JobRequest) { r.Config.Seed = u64(7) },
		"interval":  func(r *JobRequest) { r.Config.Interval = u64(200) },
		"jitter":    func(r *JobRequest) { r.Config.Jitter = u64(3) },
		"technique": func(r *JobRequest) { r.Techniques = []string{"spe"} },
		"program":   func(r *JobRequest) { r.Workload = "exchange2" },
	}
	for name, vary := range variants {
		req := scaled("tea")
		vary(&req)
		m0 := s.memo.Snapshot()
		runRequest(t, s, req)
		m1 := s.memo.Snapshot()
		if m1.Hits != m0.Hits || m1.Misses != m0.Misses+1 {
			t.Errorf("%s: memo traffic %+v -> %+v, want one miss and no hit", name, m0, m1)
		}
	}
}

// TestFailedTechniqueNeverMemoised: a technique whose probe failed is
// reported on its job and replayed again by the next identical job; the
// healthy technique beside it is memoised.
func TestFailedTechniqueNeverMemoised(t *testing.T) {
	s := runningServer(t)
	s.runTechniques = func(ctx context.Context, w workloads.Workload, p *program.Program, rc analysis.RunConfig, names []string) (*analysis.BenchRun, error) {
		br, err := analysis.RunTechniquesContext(ctx, w, p, rc, names)
		if err == nil {
			br.TEA = nil
			br.Errors["tea"] = simerr.New(simerr.ErrInternal, simerr.Snapshot{Technique: "tea"}, "injected probe failure")
		}
		return br, err
	}
	j := runRequest(t, s, scaled("tea", "ibs"))
	if _, terr, _ := j.profileBytes("tea"); terr == nil {
		t.Fatal("injected tea failure not reported on the job")
	}
	if m := s.memo.Snapshot(); m.Entries != 1 {
		t.Fatalf("memo holds %d entries after one healthy and one failed technique, want 1", m.Entries)
	}

	s.runTechniques = analysis.RunTechniquesContext
	m0 := s.memo.Snapshot()
	j = runRequest(t, s, scaled("tea", "ibs"))
	m1 := s.memo.Snapshot()
	if m1.Hits != m0.Hits+1 || m1.Misses != m0.Misses+1 {
		t.Errorf("memo traffic %+v -> %+v, want ibs hit and tea miss", m0, m1)
	}
	if doc, terr, _ := j.profileBytes("tea"); terr != nil || len(doc) == 0 {
		t.Errorf("tea after recovery: %v", terr)
	}
}

// TestFinishedJobReleasesProgram: a terminal job drops its built
// program, while its view and profiles stay as they were.
func TestFinishedJobReleasesProgram(t *testing.T) {
	s := runningServer(t)
	j := runRequest(t, s, scaled("tea"))
	j.mu.Lock()
	prog := j.prog
	j.mu.Unlock()
	if prog != nil {
		t.Fatal("finished job still holds its program")
	}
	if v := j.view(false); v.Program != "mcf" || v.Workload != "mcf" {
		t.Errorf("view program %q workload %q, want mcf", v.Program, v.Workload)
	}

	w, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.05
	br, err := analysis.RunProgramContext(context.Background(), w, w.Build(rc.Iters(w)), rc)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := br.TEA.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := j.profileBytes("tea"); !bytes.Equal(got, want.Bytes()) {
		t.Error("finished job's profile differs from a local run")
	}
}
