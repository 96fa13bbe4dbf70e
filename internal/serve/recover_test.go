package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// journaledServer starts a server with a journal rooted at dir.
func journaledServer(t *testing.T, dir string, cfg serve.Config) *testServer {
	t.Helper()
	cfg.JournalDir = dir
	return startServer(t, cfg)
}

// statsView fetches and decodes /v1/stats.
func statsView(t *testing.T, ts *testServer) serve.StatsView {
	t.Helper()
	resp, data := getJSON(t, ts.url("/v1/stats"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: got %d; body: %s", resp.StatusCode, data)
	}
	var v serve.StatsView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	return v
}

// rawJournal opens dir's journal directly (for tests that hand-craft
// WAL contents) and closes it again.
func writeJournalRecords(t *testing.T, dir string, recs ...journal.Record) {
	t.Helper()
	j, _, err := journal.Open(dir, nil)
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("journal.Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("journal.Close: %v", err)
	}
}

// submitReq is a recSubmitted payload as serve writes it — hand-built
// here to pin the replay wire format.
func submitReq(tenant string) json.RawMessage {
	return json.RawMessage(`{"req":{"tenant":"` + tenant +
		`","workload":"mcf","config":{"scale":0.05},"techniques":["tea"]}}`)
}

// TestCrashRecoveryByteIdentical is the headline property in-process:
// finish a job on a journaled server, restart on the same directory,
// and the raw profile endpoint serves the exact same bytes.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ts := journaledServer(t, dir, serve.Config{Workers: 2})
	id := submit(t, ts, `{"workload":"mcf","config":{"scale":0.05},"techniques":["tea","ibs"]}`)
	v := await(t, ts, id)
	if v.Status != serve.StatusDone {
		t.Fatalf("job ended %s: %+v", v.Status, v.Error)
	}
	pre := map[string][]byte{}
	for _, tech := range []string{"tea", "ibs"} {
		resp, data := getJSON(t, ts.url("/v1/jobs/"+id+"/profiles/"+tech))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pre-crash profile %s: %d", tech, resp.StatusCode)
		}
		pre[tech] = data
	}
	ts.srv.Close() // release the WAL handle; the test server teardown is the "crash"

	ts2 := journaledServer(t, dir, serve.Config{Workers: 2})
	v2 := await(t, ts2, id)
	if v2.Status != serve.StatusDone {
		t.Fatalf("recovered job is %s: %+v", v2.Status, v2.Error)
	}
	for _, tech := range []string{"tea", "ibs"} {
		resp, data := getJSON(t, ts2.url("/v1/jobs/"+id+"/profiles/"+tech))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recovered profile %s: %d", tech, resp.StatusCode)
		}
		if !bytes.Equal(data, pre[tech]) {
			t.Fatalf("recovered %s profile differs from pre-crash bytes", tech)
		}
	}
	st := statsView(t, ts2)
	if st.Durability.Recovery.RestoredDone != 1 {
		t.Fatalf("recovery stats: %+v; want 1 restored done job", st.Durability.Recovery)
	}
	if st.Durability.Mode != serve.ModeDurable {
		t.Fatalf("mode = %q, want %q", st.Durability.Mode, serve.ModeDurable)
	}
}

// TestRecoveryRequeuesInterrupted: a job journaled as submitted+running
// but never terminal (killed mid-run) is re-enqueued on startup and
// completes with profiles byte-identical to an uninterrupted local run.
func TestRecoveryRequeuesInterrupted(t *testing.T) {
	dir := t.TempDir()
	writeJournalRecords(t, dir,
		journal.Record{Type: "submitted", JobID: "j-000007", TimeUnixMs: 1000, Data: submitReq("t0")},
		journal.Record{Type: "running", JobID: "j-000007", TimeUnixMs: 2000},
	)

	ts := journaledServer(t, dir, serve.Config{Workers: 2})
	v := await(t, ts, "j-000007")
	if v.Status != serve.StatusDone {
		t.Fatalf("requeued job ended %s: %+v", v.Status, v.Error)
	}
	resp, got := getJSON(t, ts.url("/v1/jobs/j-000007/profiles/tea"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile after requeue: %d", resp.StatusCode)
	}
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.05
	w, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	want := localProfiles(t, w, rc, []string{"tea"})["tea"]
	if !bytes.Equal(got, want) {
		t.Fatal("re-run profile differs from an uninterrupted local run")
	}
	st := statsView(t, ts)
	if st.Durability.Recovery.Requeued != 1 {
		t.Fatalf("recovery stats: %+v; want 1 requeued job", st.Durability.Recovery)
	}
	// New submissions must not collide with the recovered ID space.
	id := submit(t, ts, `{"workload":"mcf","config":{"scale":0.05}}`)
	if id <= "j-000007" {
		t.Fatalf("post-recovery ID %s does not advance past recovered j-000007", id)
	}
}

// TestRecoveryDropsRetiredCaptureKnobs: a submitted record journaled by
// a server that still accepted config.checkpoint_interval and
// config.capture_workers replays cleanly. Recovery drops the unknown
// fields, so the job re-runs serially and returns the same bytes.
func TestRecoveryDropsRetiredCaptureKnobs(t *testing.T) {
	dir := t.TempDir()
	writeJournalRecords(t, dir,
		journal.Record{Type: "submitted", JobID: "j-000003", TimeUnixMs: 1000, Data: json.RawMessage(
			`{"req":{"tenant":"t0","workload":"exchange2","techniques":["tea"],` +
				`"config":{"scale":0.05,"checkpoint_interval":500,"capture_workers":2}}}`)},
		journal.Record{Type: "running", JobID: "j-000003", TimeUnixMs: 2000},
	)

	ts := journaledServer(t, dir, serve.Config{Workers: 2})
	v := await(t, ts, "j-000003")
	if v.Status != serve.StatusDone {
		t.Fatalf("recovered job ended %s: %+v", v.Status, v.Error)
	}
	resp, got := getJSON(t, ts.url("/v1/jobs/j-000003/profiles/tea"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile after recovery: %d", resp.StatusCode)
	}
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.05
	w, err := workloads.ByName("exchange2")
	if err != nil {
		t.Fatal(err)
	}
	if want := localProfiles(t, w, rc, []string{"tea"})["tea"]; !bytes.Equal(got, want) {
		t.Fatal("recovered profile differs from a local serial run")
	}
	if r := statsView(t, ts).Durability.Recovery; r.MalformedRecords != 0 {
		t.Fatalf("recovery stats: %+v; want 0 malformed records", r)
	}
}

// TestRecoveryEdgeCases covers the replay state machine's tolerance:
// duplicate terminal records (first wins), records for unknown job IDs
// (skipped), and a cancel-before-crash (finalized canceled).
func TestRecoveryEdgeCases(t *testing.T) {
	dir := t.TempDir()
	failedBody := json.RawMessage(`{"error":{"kind":"runaway","status":422,"message":"boom"}}`)
	writeJournalRecords(t, dir,
		// j-000001: failed twice (a crash between append and ack could
		// produce a re-run that fails again) — first record wins.
		journal.Record{Type: "submitted", JobID: "j-000001", TimeUnixMs: 1, Data: submitReq("a")},
		journal.Record{Type: "running", JobID: "j-000001", TimeUnixMs: 2},
		journal.Record{Type: "failed", JobID: "j-000001", TimeUnixMs: 3, Data: failedBody},
		journal.Record{Type: "failed", JobID: "j-000001", TimeUnixMs: 4, Data: failedBody},
		// Records for a job that was never submitted: skipped, counted.
		journal.Record{Type: "running", JobID: "j-000099", TimeUnixMs: 5},
		journal.Record{Type: "done", JobID: "j-000099", TimeUnixMs: 6, Data: json.RawMessage(`{}`)},
		// j-000002: cancel requested, crash before the terminal record.
		journal.Record{Type: "submitted", JobID: "j-000002", TimeUnixMs: 7, Data: submitReq("b")},
		journal.Record{Type: "cancel", JobID: "j-000002", TimeUnixMs: 8},
		// An unrecognized record type from a hypothetical future writer:
		// skipped, counted, not fatal.
		journal.Record{Type: "annotation", JobID: "j-000001", TimeUnixMs: 9},
	)

	ts := journaledServer(t, dir, serve.Config{Workers: 1})

	v := await(t, ts, "j-000001")
	if v.Status != serve.StatusFailed || v.Error == nil || v.Error.Kind != "runaway" {
		t.Fatalf("j-000001 restored as %s / %+v; want failed/runaway", v.Status, v.Error)
	}
	v2 := await(t, ts, "j-000002")
	if v2.Status != serve.StatusCanceled {
		t.Fatalf("j-000002 restored as %s; want canceled", v2.Status)
	}
	if resp, _ := getJSON(t, ts.url("/v1/jobs/j-000099")); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-job records materialized a job: %d", resp.StatusCode)
	}

	r := statsView(t, ts).Durability.Recovery
	if r.DuplicateTerminals != 1 {
		t.Errorf("DuplicateTerminals = %d, want 1 (%+v)", r.DuplicateTerminals, r)
	}
	if r.UnknownJobRecords != 2 {
		t.Errorf("UnknownJobRecords = %d, want 2 (%+v)", r.UnknownJobRecords, r)
	}
	if r.MalformedRecords != 1 {
		t.Errorf("MalformedRecords = %d, want 1 for the unknown type (%+v)", r.MalformedRecords, r)
	}
	if r.RestoredFailed != 1 || r.RestoredCanceled != 1 {
		t.Errorf("restored failed=%d canceled=%d, want 1/1 (%+v)", r.RestoredFailed, r.RestoredCanceled, r)
	}
}

// TestRecoveryMissingResultFile: a done job whose result file vanished
// (or was corrupted) must come back failed with a typed error — never
// a panic, never a 500 on the job view, never unverified bytes.
func TestRecoveryMissingResultFile(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sabotage func(t *testing.T, dir, id string)
	}{
		{"missing", func(t *testing.T, dir, id string) {
			path := filepath.Join(dir, "results", id+"-tea.bin")
			if err := os.Remove(path); err != nil {
				t.Fatalf("remove result: %v", err)
			}
		}},
		{"corrupted", func(t *testing.T, dir, id string) {
			path := filepath.Join(dir, "results", id+"-tea.bin")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read result: %v", err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatalf("corrupt result: %v", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ts := journaledServer(t, dir, serve.Config{Workers: 1})
			id := submit(t, ts, `{"workload":"mcf","config":{"scale":0.05}}`)
			if v := await(t, ts, id); v.Status != serve.StatusDone {
				t.Fatalf("job ended %s", v.Status)
			}
			ts.srv.Close()
			tc.sabotage(t, dir, id)

			ts2 := journaledServer(t, dir, serve.Config{Workers: 1})
			resp, data := getJSON(t, ts2.url("/v1/jobs/"+id))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("job view after sabotage: %d %s", resp.StatusCode, data)
			}
			var v serve.JobView
			if err := json.Unmarshal(data, &v); err != nil {
				t.Fatalf("decode view: %v", err)
			}
			if v.Status != serve.StatusFailed || v.Error == nil || v.Error.Kind != "decode" {
				t.Fatalf("restored as %s / %+v; want failed with kind decode", v.Status, v.Error)
			}
			r := statsView(t, ts2).Durability.Recovery
			if r.ResultLoadFailures != 1 || r.RestoredFailed != 1 {
				t.Fatalf("recovery stats %+v; want 1 result load failure restored failed", r)
			}
		})
	}
}

// TestRecoveryEmptyAndAbsentJournal: a journal directory that does not
// exist yet, and one holding an empty WAL, both come up clean.
func TestRecoveryEmptyAndAbsentJournal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not-yet-created", "journal")
	ts := journaledServer(t, dir, serve.Config{Workers: 1})
	st := statsView(t, ts)
	if st.Durability.Mode != serve.ModeDurable || st.Durability.Recovery.Replayed != 0 {
		t.Fatalf("fresh journal: %+v", st.Durability)
	}
	// A job runs normally and is journaled.
	id := submit(t, ts, `{"workload":"mcf","config":{"scale":0.05}}`)
	if v := await(t, ts, id); v.Status != serve.StatusDone {
		t.Fatalf("job ended %s", v.Status)
	}
	ts.srv.Close()

	ts2 := journaledServer(t, dir, serve.Config{Workers: 1})
	if got := statsView(t, ts2).Durability.Recovery.RestoredDone; got != 1 {
		t.Fatalf("restored done = %d, want 1", got)
	}
}

// ackFS is a slowed FaultFS that records when a job's outcome is
// durable: at the first WAL fsync after a result file is renamed into
// place, i.e. once the done record pointing at it is on disk.
type ackFS struct {
	*faultinject.FaultFS
	resultWritten atomic.Bool
	durable       atomic.Bool
}

func (f *ackFS) Rename(oldname, newname string) error {
	err := f.FaultFS.Rename(oldname, newname)
	if err == nil && filepath.Base(filepath.Dir(newname)) == "results" {
		f.resultWritten.Store(true)
	}
	return err
}

func (f *ackFS) OpenAppend(name string) (journal.File, error) {
	file, err := f.FaultFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &ackFile{File: file, fs: f}, nil
}

type ackFile struct {
	journal.File
	fs *ackFS
}

func (a *ackFile) Sync() error {
	err := a.File.Sync()
	if err == nil && a.fs.resultWritten.Load() {
		a.fs.durable.Store(true)
	}
	return err
}

// TestDoneOnlyAfterDurable: on a journal whose every operation is slow,
// a client streaming the job never sees "done" before the result file
// is written and the done record fsynced — acknowledging earlier would
// report a job done that a crash would re-run.
func TestDoneOnlyAfterDurable(t *testing.T) {
	fs := &ackFS{FaultFS: faultinject.NewFaultFS(nil)}
	fs.SlowIO(20 * time.Millisecond)
	ts := journaledServer(t, t.TempDir(), serve.Config{Workers: 1, JournalFS: fs})
	id := submit(t, ts, `{"workload":"mcf","config":{"scale":0.05},"techniques":["tea"]}`)

	resp, err := http.Get(ts.url("/v1/jobs/" + id + "/stream"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var rec struct {
			Type   string       `json:"type"`
			Status serve.Status `json:"status"`
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("stream ended without a done status: %v", err)
		}
		if rec.Type == "status" && rec.Status.Terminal() {
			if rec.Status != serve.StatusDone {
				t.Fatalf("job ended %s", rec.Status)
			}
			if !fs.durable.Load() {
				t.Fatal("job visible as done before its result file and done record were durable")
			}
			return
		}
	}
}

// TestHealthzReadyz pins the liveness/readiness split: healthz is
// always 200 and carries the mode; readyz reflects queue saturation.
func TestHealthzReadyz(t *testing.T) {
	// Memory-only server: healthy, ready, mode reported.
	ts := startServer(t, serve.Config{Workers: 1})
	resp, data := getJSON(t, ts.url("/v1/healthz"))
	var hv serve.HealthView
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &hv) != nil {
		t.Fatalf("healthz: %d %s", resp.StatusCode, data)
	}
	if hv.Status != "ok" || hv.Mode != serve.ModeMemoryOnly {
		t.Fatalf("healthz body %+v; want ok/memory-only", hv)
	}
	resp, _ = getJSON(t, ts.url("/v1/readyz"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz on idle server: %d", resp.StatusCode)
	}

	// Journaled server reports durable mode.
	ts2 := journaledServer(t, t.TempDir(), serve.Config{Workers: 1})
	resp, data = getJSON(t, ts2.url("/v1/healthz"))
	if json.Unmarshal(data, &hv) != nil || hv.Mode != serve.ModeDurable {
		t.Fatalf("journaled healthz: %d %s", resp.StatusCode, data)
	}

	// A saturated queue flips readiness (workers not running), while
	// liveness stays 200.
	ts3 := startQueueOnly(t, serve.Config{QueueDepth: 1})
	submit(t, ts3, `{"workload":"mcf","config":{"scale":0.05}}`)
	resp, data = getJSON(t, ts3.url("/v1/readyz"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz on saturated queue: %d %s", resp.StatusCode, data)
	}
	var rv serve.ReadyView
	if err := json.Unmarshal(data, &rv); err != nil || rv.Ready || rv.Reason == "" {
		t.Fatalf("readyz body %s: %v", data, err)
	}
	if resp, _ := getJSON(t, ts3.url("/v1/healthz")); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation: %d", resp.StatusCode)
	}
}
