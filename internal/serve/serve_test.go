package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// testServer bundles a serve.Server, its running worker pool, and an
// httptest frontend.
type testServer struct {
	srv  *serve.Server
	http *httptest.Server
}

func (ts *testServer) url(path string) string { return ts.http.URL + path }

// startServer spins up a full server (handler + worker pool) and tears
// it down with the test.
func startServer(t *testing.T, cfg serve.Config) *testServer {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		s.Run(ctx)
		close(done)
	}()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		cancel()
		<-done
	})
	return &testServer{srv: s, http: hs}
}

// startQueueOnly builds a server whose worker pool is NOT running, so
// admitted jobs stay queued — deterministic ground for queue-full and
// cancel-while-queued tests.
func startQueueOnly(t *testing.T, cfg serve.Config) *testServer {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return &testServer{srv: s, http: hs}
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// submit posts a job request and returns the assigned ID.
func submit(t *testing.T, ts *testServer, body string) string {
	t.Helper()
	resp, data := postJSON(t, ts.url("/v1/jobs"), body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202; body: %s", resp.StatusCode, data)
	}
	var sub serve.SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	if sub.ID == "" || sub.Status != serve.StatusQueued {
		t.Fatalf("submit response %+v: want non-empty id, status queued", sub)
	}
	return sub.ID
}

// await polls the job until it reaches a terminal status.
func await(t *testing.T, ts *testServer, id string) serve.JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := getJSON(t, ts.url("/v1/jobs/"+id))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: got %d; body: %s", id, resp.StatusCode, data)
		}
		var view serve.JobView
		if err := json.Unmarshal(data, &view); err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if view.Status.Terminal() {
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal status", id)
	return serve.JobView{}
}

// errorKind decodes the error envelope's kind.
func errorKind(t *testing.T, data []byte) string {
	t.Helper()
	var env struct {
		Error *serve.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil || env.Error == nil {
		t.Fatalf("not an error envelope: %s", data)
	}
	return env.Error.Kind
}

// localProfiles runs the same job through the in-process harness and
// renders each technique with the same writer the server uses.
func localProfiles(t *testing.T, w workloads.Workload, rc analysis.RunConfig, techniques []string) map[string][]byte {
	t.Helper()
	br := analysis.RunProgram(w, w.Build(rc.Iters(w)), rc)
	out := make(map[string][]byte, len(techniques))
	for _, name := range techniques {
		p := map[string]interface{ WriteJSON(io.Writer) error }{
			"golden": br.Golden, "tea": br.TEA, "nci-tea": br.NCITEA,
			"ibs": br.IBS, "spe": br.SPE, "ris": br.RIS,
		}[name]
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatalf("local %s profile: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestSubmitByteIdenticalProfiles is the service's core contract: the
// profiles a job returns are byte-for-byte the pics documents a local
// analysis.RunProgram of the same (program, config) produces — across
// all six techniques.
func TestSubmitByteIdenticalProfiles(t *testing.T) {
	ts := startServer(t, serve.Config{Workers: 2})
	id := submit(t, ts, `{"tenant":"t1","workload":"deepsjeng","techniques":["golden","tea","nci-tea","ibs","spe","ris"],"config":{"scale":0.05}}`)
	view := await(t, ts, id)
	if view.Status != serve.StatusDone {
		t.Fatalf("job finished %s (error: %+v), want done", view.Status, view.Error)
	}
	if len(view.TechniqueErrors) != 0 {
		t.Fatalf("unexpected technique errors: %+v", view.TechniqueErrors)
	}

	w, err := workloads.ByName("deepsjeng")
	if err != nil {
		t.Fatal(err)
	}
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.05
	want := localProfiles(t, w, rc, serve.AllTechniques)
	for _, name := range serve.AllTechniques {
		if _, ok := view.Profiles[name]; !ok {
			t.Fatalf("job view returned no %q profile", name)
		}
		resp, got := getJSON(t, ts.url("/v1/jobs/"+id+"/profiles/"+name))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("raw %s profile: got %d; body: %s", name, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want[name]) {
			t.Errorf("%s profile differs from local run (%d vs %d bytes)", name, len(got), len(want[name]))
		}
	}

	// The raw endpoint answers 404 for a technique the job never ran.
	resp, data := getJSON(t, ts.url("/v1/jobs/"+id+"/profiles/doom"))
	if resp.StatusCode != http.StatusNotFound || errorKind(t, data) != "not_found" {
		t.Errorf("unknown technique profile: %d %s", resp.StatusCode, data)
	}
}

// TestInlineProgram checks the program spec path, including the lbm
// prefetch knob, against the equivalent local construction.
func TestInlineProgram(t *testing.T) {
	ts := startServer(t, serve.Config{Workers: 2})
	id := submit(t, ts, `{"program":{"kind":"lbm","iters":48,"prefetch_dist":3},"techniques":["tea"]}`)
	view := await(t, ts, id)
	if view.Status != serve.StatusDone {
		t.Fatalf("job finished %s (error: %+v), want done", view.Status, view.Error)
	}

	w, err := workloads.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	br := analysis.RunProgram(w, workloads.LBM(48, 3), analysis.DefaultRunConfig())
	var buf bytes.Buffer
	if err := br.TEA.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	resp, got := getJSON(t, ts.url("/v1/jobs/"+id+"/profiles/tea"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw profile: got %d", resp.StatusCode)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Errorf("inline lbm tea profile differs from local workloads.LBM run")
	}
	if !strings.Contains(view.Program, "lbm") {
		t.Errorf("program name %q does not mention lbm", view.Program)
	}
}

// TestSubmitValidation drives the rejection matrix: every malformed
// request is a 4xx with a stable kind, and none of them crash anything.
func TestSubmitValidation(t *testing.T) {
	ts := startQueueOnly(t, serve.Config{MaxBodyBytes: 4096, MaxIters: 1 << 16})
	cases := []struct {
		name   string
		body   string
		status int
		kind   string
	}{
		{"empty body", ``, 400, "bad_request"},
		{"not json", `{{{{`, 400, "bad_request"},
		{"wrong type", `{"workload":42}`, 400, "bad_request"},
		{"unknown field", `{"workload":"mcf","frobnicate":1}`, 400, "bad_request"},
		{"trailing data", `{"workload":"mcf"} garbage`, 400, "bad_request"},
		{"neither workload nor program", `{"tenant":"t"}`, 400, "invalid_config"},
		{"both workload and program", `{"workload":"mcf","program":{"kind":"mcf","iters":8}}`, 400, "invalid_config"},
		{"unknown workload", `{"workload":"doom"}`, 400, "invalid_config"},
		{"unknown technique", `{"workload":"mcf","techniques":["perf"]}`, 400, "invalid_config"},
		{"zero interval", `{"workload":"mcf","config":{"interval":0}}`, 400, "invalid_config"},
		{"jitter above interval", `{"workload":"mcf","config":{"interval":10,"jitter":100}}`, 400, "invalid_config"},
		{"negative scale", `{"workload":"mcf","config":{"scale":-1}}`, 400, "invalid_config"},
		{"huge scale", `{"workload":"mcf","config":{"scale":1e9}}`, 400, "invalid_config"},
		{"retired checkpoint interval", `{"workload":"mcf","config":{"checkpoint_interval":500}}`, 400, "bad_request"},
		{"retired capture workers", `{"workload":"mcf","config":{"capture_workers":2}}`, 400, "bad_request"},
		{"iters too small", `{"program":{"kind":"mcf","iters":1}}`, 400, "invalid_program"},
		{"iters too large", `{"program":{"kind":"mcf","iters":1000000}}`, 400, "invalid_program"},
		{"prefetch on non-lbm", `{"program":{"kind":"mcf","iters":8,"prefetch_dist":2}}`, 400, "invalid_program"},
		{"prefetch out of range", `{"program":{"kind":"lbm","iters":8,"prefetch_dist":100}}`, 400, "invalid_program"},
		{"fast_math on non-nab", `{"program":{"kind":"mcf","iters":8,"fast_math":true}}`, 400, "invalid_program"},
		{"oversized body", `{"workload":"mcf","tenant":"` + strings.Repeat("x", 5000) + `"}`, 413, "body_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.url("/v1/jobs"), tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("got %d, want %d; body: %s", resp.StatusCode, tc.status, data)
			}
			if kind := errorKind(t, data); kind != tc.kind {
				t.Errorf("got kind %q, want %q", kind, tc.kind)
			}
		})
	}
}

// TestQuota verifies the token bucket: burst admits, the next request
// is shed with 429 + Retry-After, and a clock advance refills.
func TestQuota(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	var mu sync.Mutex
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}
	ts := startQueueOnly(t, serve.Config{
		QueueDepth:  64,
		TenantRate:  1, // one job/second
		TenantBurst: 2,
		Now:         now,
	})

	submit(t, ts, `{"tenant":"heavy","workload":"mcf"}`)
	submit(t, ts, `{"tenant":"heavy","workload":"mcf"}`)
	resp, data := postJSON(t, ts.url("/v1/jobs"), `{"tenant":"heavy","workload":"mcf"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: got %d, want 429; body: %s", resp.StatusCode, data)
	}
	if kind := errorKind(t, data); kind != "quota_exceeded" {
		t.Errorf("got kind %q, want quota_exceeded", kind)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	// A different tenant has its own bucket.
	submit(t, ts, `{"tenant":"light","workload":"mcf"}`)

	// Advancing the clock refills the heavy tenant.
	mu.Lock()
	clock = clock.Add(2 * time.Second)
	mu.Unlock()
	submit(t, ts, `{"tenant":"heavy","workload":"mcf"}`)
}

// TestQueueFull verifies admission control: with no workers draining, a
// full queue sheds with 429 queue_full + Retry-After and the job is not
// registered.
func TestQueueFull(t *testing.T) {
	ts := startQueueOnly(t, serve.Config{QueueDepth: 2})
	submit(t, ts, `{"workload":"mcf"}`)
	submit(t, ts, `{"workload":"mcf"}`)
	resp, data := postJSON(t, ts.url("/v1/jobs"), `{"workload":"mcf"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("got %d, want 429; body: %s", resp.StatusCode, data)
	}
	if kind := errorKind(t, data); kind != "queue_full" {
		t.Errorf("got kind %q, want queue_full", kind)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
}

// TestCancelQueued covers asynchronous cancellation of a queued job:
// DELETE is accepted immediately, and the worker pool finalizes the job
// as canceled (without running it) once it starts draining.
func TestCancelQueued(t *testing.T) {
	s, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	ts := &testServer{srv: s, http: hs}

	id := submit(t, ts, `{"workload":"mcf","config":{"scale":0.05}}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.url("/v1/jobs/"+id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: got %d, want 202", resp.StatusCode)
	}

	// Now start the pool; it must drain the job as canceled.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		s.Run(ctx)
		close(done)
	}()
	defer func() {
		cancel()
		<-done
	}()
	view := await(t, ts, id)
	if view.Status != serve.StatusCanceled {
		t.Fatalf("got status %s, want canceled", view.Status)
	}
	if view.Error == nil || view.Error.Kind != "canceled" {
		t.Fatalf("got error %+v, want kind canceled", view.Error)
	}
	if len(view.Profiles) != 0 {
		t.Error("canceled job has profiles")
	}
}

// TestCancelTerminalConflicts: canceling a finished job is a 409.
func TestCancelTerminalConflicts(t *testing.T) {
	ts := startServer(t, serve.Config{Workers: 1})
	id := submit(t, ts, `{"workload":"mcf","config":{"scale":0.05}}`)
	await(t, ts, id)

	req, _ := http.NewRequest(http.MethodDelete, ts.url("/v1/jobs/"+id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("got %d, want 409; body: %s", resp.StatusCode, data)
	}
	if kind := errorKind(t, data); kind != "conflict" {
		t.Errorf("got kind %q, want conflict", kind)
	}
}

// TestJobTimeout: a tiny per-job deadline cancels the run mid-flight
// and the job lands canceled with the typed kind.
func TestJobTimeout(t *testing.T) {
	ts := startServer(t, serve.Config{Workers: 1, JobTimeout: time.Millisecond})
	id := submit(t, ts, `{"workload":"bwaves","config":{"scale":1.0}}`)
	view := await(t, ts, id)
	if view.Status != serve.StatusCanceled {
		t.Fatalf("got status %s (error %+v), want canceled", view.Status, view.Error)
	}
	if view.Error == nil || view.Error.Kind != "canceled" {
		t.Fatalf("got error %+v, want kind canceled", view.Error)
	}
}

// TestStream reads the NDJSON stream to completion and checks the
// record protocol: status transitions, one profile record per
// technique, and a final end record without inline profiles.
func TestStream(t *testing.T) {
	ts := startServer(t, serve.Config{Workers: 1})
	id := submit(t, ts, `{"workload":"mcf","techniques":["tea","ibs"],"config":{"scale":0.05}}`)

	resp, err := http.Get(ts.url("/v1/jobs/" + id + "/stream"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: got %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content-type %q", ct)
	}

	type record struct {
		Type      string          `json:"type"`
		Status    serve.Status    `json:"status"`
		Technique string          `json:"technique"`
		Profile   json.RawMessage `json:"profile"`
		Job       *serve.JobView  `json:"job"`
	}
	var records []record
	dec := json.NewDecoder(resp.Body)
	for {
		var rec record
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		records = append(records, rec)
	}
	if len(records) < 2 {
		t.Fatalf("stream produced %d records, want >= 2", len(records))
	}
	last := records[len(records)-1]
	if last.Type != "end" || last.Job == nil || last.Job.Status != serve.StatusDone {
		t.Fatalf("last record %+v, want end with done job", last)
	}
	if last.Job.Profiles != nil {
		t.Error("end record carries inline profiles; they belong in profile records")
	}
	profiles := map[string]bool{}
	for _, rec := range records {
		if rec.Type == "profile" {
			if len(rec.Profile) == 0 {
				t.Errorf("empty profile record for %q", rec.Technique)
			}
			profiles[rec.Technique] = true
		}
	}
	if !profiles["tea"] || !profiles["ibs"] {
		t.Errorf("stream profile records %v, want tea and ibs", profiles)
	}
}

// TestDedupAcrossTenants: N concurrent identical jobs from distinct
// tenants cost exactly one capture — the singleflight trace store is
// shared across the pool.
func TestDedupAcrossTenants(t *testing.T) {
	ts := startServer(t, serve.Config{Workers: 4, QueueDepth: 64})
	before := analysis.CaptureCount()

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Unique iteration count so no earlier test already cached
			// this program; identical across the n jobs.
			body := fmt.Sprintf(`{"tenant":"tenant-%d","program":{"kind":"exchange2","iters":97},"techniques":["tea"]}`, i%4)
			resp, err := http.Post(ts.url("/v1/jobs"), "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var sub serve.SubmitResponse
			if resp.StatusCode != http.StatusAccepted || json.Unmarshal(data, &sub) != nil {
				t.Errorf("submit %d: status %d body %s", i, resp.StatusCode, data)
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()

	var first []byte
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		view := await(t, ts, id)
		if view.Status != serve.StatusDone {
			t.Fatalf("job %s finished %s (error %+v)", id, view.Status, view.Error)
		}
		if first == nil {
			first = []byte(view.Profiles["tea"])
		} else if !bytes.Equal(first, []byte(view.Profiles["tea"])) {
			t.Errorf("job %s profile differs across identical submissions", id)
		}
	}

	if got := analysis.CaptureCount() - before; got != 1 {
		t.Errorf("%d identical jobs performed %d captures, want exactly 1", n, got)
	}
}

// TestStatsAndHealth: the stats document reflects traffic, and healthz
// answers.
func TestStatsAndHealth(t *testing.T) {
	ts := startServer(t, serve.Config{Workers: 1})
	id := submit(t, ts, `{"tenant":"acme","workload":"mcf","config":{"scale":0.05}}`)
	await(t, ts, id)

	resp, data := getJSON(t, ts.url("/v1/stats"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: got %d", resp.StatusCode)
	}
	var stats serve.StatsView
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatalf("stats decode: %v (%s)", err, data)
	}
	if stats.Submitted < 1 || stats.Jobs["done"] < 1 {
		t.Errorf("stats %+v: want >=1 submitted and done", stats)
	}
	if stats.Tenants["acme"].Submitted < 1 {
		t.Errorf("tenant stats missing acme: %+v", stats.Tenants)
	}
	if stats.Workers != 1 {
		t.Errorf("stats workers %d, want 1", stats.Workers)
	}
	// The job rendered one profile into this fresh server's memo.
	if m := stats.ProfileMemo; m.Hits != 0 || m.Misses != 1 || m.Entries != 1 || m.Bytes == 0 {
		t.Errorf("profile_memo %+v after one tea job, want 1 miss and 1 entry", m)
	}
	// The codec section aggregates every capture this process has
	// written; at least the job above contributed, so the counters must
	// be live and the v4 encoding strictly smaller than its logical
	// (v3-equivalent) size.
	if stats.Codec.Captures < 1 || stats.Codec.Records == 0 {
		t.Errorf("codec stats idle after a capture: %+v", stats.Codec)
	}
	if stats.Codec.EncodedBytes == 0 || stats.Codec.EncodedBytes >= stats.Codec.LogicalBytes {
		t.Errorf("codec bytes not compressed: encoded %d, logical %d",
			stats.Codec.EncodedBytes, stats.Codec.LogicalBytes)
	}
	if stats.Codec.CompressionRatio <= 1 || stats.Codec.PatternHitRate <= 0 {
		t.Errorf("codec ratios idle: %+v", stats.Codec)
	}

	resp, data = getJSON(t, ts.url("/v1/healthz"))
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte("ok")) {
		t.Errorf("healthz: %d %s", resp.StatusCode, data)
	}
}

// TestNotFound: unknown jobs and unknown paths both answer the JSON
// error envelope, never the mux's text default.
func TestNotFound(t *testing.T) {
	ts := startQueueOnly(t, serve.Config{})
	resp, data := getJSON(t, ts.url("/v1/jobs/j-999999"))
	if resp.StatusCode != http.StatusNotFound || errorKind(t, data) != "not_found" {
		t.Errorf("unknown job: %d %s", resp.StatusCode, data)
	}
	resp, data = getJSON(t, ts.url("/nope"))
	if resp.StatusCode != http.StatusNotFound || errorKind(t, data) != "not_found" {
		t.Errorf("unknown path: %d %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("404 content-type %q, want application/json", ct)
	}
}

// TestFinishedRetention: beyond KeepFinished, the oldest terminal jobs
// are evicted and become 404.
func TestFinishedRetention(t *testing.T) {
	ts := startServer(t, serve.Config{Workers: 1, KeepFinished: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		id := submit(t, ts, `{"workload":"mcf","config":{"scale":0.05}}`)
		await(t, ts, id)
		ids = append(ids, id)
	}
	resp, _ := getJSON(t, ts.url("/v1/jobs/"+ids[0]))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job still answers %d", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.url("/v1/jobs/"+ids[3]))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("retained job answers %d", resp.StatusCode)
	}
}
