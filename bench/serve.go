package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/pics"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// servePrograms are the suite workloads serve-tea cycles over, as in the
// committed teaserve bench.
var servePrograms = []string{"bwaves", "exchange2", "mcf", "x264"}

// checkEvery makes every checkEvery-th job of a timed phase compared,
// after the phase, with a local analysis run through both the streamed
// and the raw-profile bytes.
const checkEvery = 25

// clients is the closed loop's client count: one per server worker,
// which is one per core on the two-core reference runner.
const clients = 2

// jobMix describes the requests of one stream of jobs. Job i asks for
// program i mod len(programs); every job has the same seed.
type jobMix struct {
	programs   []string
	techniques []string
	seed       uint64
	scale      float64

	// want holds, per program, the streamed profiles every job of that
	// program must carry (nil: checked only by checkServed).
	want map[string]map[string][]byte
}

func (m jobMix) request(i int) serve.JobRequest {
	seed := m.seed
	scale := m.scale
	return serve.JobRequest{
		Tenant:     "bench",
		Workload:   m.programs[i%len(m.programs)],
		Config:     &serve.ConfigSpec{Seed: &seed, Scale: &scale},
		Techniques: m.techniques,
	}
}

// requestConfig is the run configuration the server derives from req.
func requestConfig(req serve.JobRequest) analysis.RunConfig {
	rc := analysis.DefaultRunConfig()
	rc.Seed, rc.Scale = *req.Config.Seed, *req.Config.Scale
	return rc
}

// reference renders a request's profiles locally, through the same
// analysis and pics calls a job runs; a served profile must equal it
// byte for byte.
func reference(ctx context.Context, req serve.JobRequest) (map[string][]byte, error) {
	rc := requestConfig(req)
	w, err := workloads.ByName(req.Workload)
	if err != nil {
		return nil, err
	}
	br, err := analysis.RunProgramContext(ctx, w, w.Build(rc.Iters(w)), rc)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, name := range req.Techniques {
		p := map[string]*pics.Profile{
			"golden": br.Golden, "tea": br.TEA, "nci-tea": br.NCITEA,
			"ibs": br.IBS, "spe": br.SPE, "ris": br.RIS,
		}[name]
		if p == nil {
			return nil, fmt.Errorf("local run of %s has no %s profile", req.Workload, name)
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			return nil, err
		}
		out[name] = buf.Bytes()
	}
	return out, nil
}

// streamEncoding is how the stream endpoint carries a profile document:
// re-encoded by encoding/json, which compacts it and escapes HTML.
func streamEncoding(doc []byte) []byte {
	b, err := json.Marshal(json.RawMessage(doc))
	if err != nil {
		return nil
	}
	return b
}

// withServer runs fn against an in-process teaserve on a loopback port
// (two workers, queue 64, quotas off), durable with a journal in a fresh
// temporary directory when durable is set, and stops it once fn returns.
// The server keeps the last 64 finished jobs, not the default 16384: a
// finished job holds its built program, so with the default the heap
// grows with every job a run completes, and peak RSS would measure the
// run's throughput rather than the server's steady state.
func withServer(ctx context.Context, durable bool, fs *timingFS, fn func(url string) error) error {
	cfg := serve.Config{Workers: 2, QueueDepth: 64, KeepFinished: 64}
	if durable {
		dir, err := os.MkdirTemp("", "teabench-journal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.JournalDir = dir
		if fs != nil {
			cfg.JournalFS = fs
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		srv.Run(runCtx)
	}()
	go func() {
		defer wg.Done()
		hs.Serve(ln)
	}()
	err = fn("http://" + ln.Addr().String())
	shutCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if serr := hs.Shutdown(shutCtx); serr != nil && err == nil {
		err = serr
	}
	stop()
	wg.Wait()
	return err
}

// jobResult is one job as its client saw it.
type jobResult struct {
	index     int
	id        string
	latencyMs float64           // POST sent to end record received
	submitMs  float64           // POST round trip
	queueMs   float64           // server-reported
	runMs     float64           // server-reported
	rejected  bool              // 429 from admission control
	checked   bool              // checkServed compares this job with a local run
	profiles  map[string][]byte // streamed, kept for checked jobs only
	raw       map[string][]byte // raw-profile endpoint bytes of checked jobs
	err       error
}

// client is one researcher's script: one keep-alive connection, one job
// at a time.
type client struct {
	http *http.Client
	url  string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, url: url}
}

// job submits req and follows the job's stream to its end record,
// recording the job's spans on tr.
func (c *client) job(ctx context.Context, i int, req serve.JobRequest, tr *tracer) jobResult {
	r := jobResult{index: i}
	body, err := json.Marshal(req)
	if err != nil {
		r.err = err
		return r
	}
	jobSpan := tr.id()
	t0 := time.Now()
	status, data, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	t1 := time.Now()
	tr.add(tr.id(), jobSpan, "serve.submit", "POST /v1/jobs", t0, t1)
	r.submitMs = ms(t1.Sub(t0))
	switch {
	case err != nil:
		r.err = err
		return r
	case status == http.StatusTooManyRequests:
		r.rejected = true
		r.err = fmt.Errorf("submit rejected: %s", data)
		return r
	case status != http.StatusAccepted:
		r.err = fmt.Errorf("submit: status %d: %s", status, data)
		return r
	}
	var sub serve.SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		r.err = fmt.Errorf("submit response: %w", err)
		return r
	}
	r.id = sub.ID
	tr.bindJob(r.id, jobSpan)

	view, profiles, err := c.stream(ctx, r.id)
	t2 := time.Now()
	r.latencyMs = ms(t2.Sub(t0))
	tr.add(tr.id(), jobSpan, "serve.stream", r.id, t1, t2)
	tr.add(jobSpan, 0, "bench.job", r.id, t0, t2)
	if err != nil {
		r.err = err
		return r
	}
	r.queueMs, r.runMs, r.profiles = view.QueueMs, view.RunMs, profiles
	// The server's queue and run intervals. The server admits a job
	// while handling its POST, before it writes the response, so they
	// are placed from the moment the POST was sent.
	q := t0.Add(time.Duration(view.QueueMs * float64(time.Millisecond)))
	tr.add(tr.id(), jobSpan, "serve.queue", r.id, t0, q)
	tr.add(tr.id(), jobSpan, "serve.run", r.id, q, q.Add(time.Duration(view.RunMs*float64(time.Millisecond))))
	switch {
	case view.Status != serve.StatusDone:
		r.err = fmt.Errorf("job %s ended %s: %+v", r.id, view.Status, view.Error)
	case len(view.TechniqueErrors) > 0:
		r.err = fmt.Errorf("job %s: technique errors %v", r.id, view.TechniqueErrors)
	case len(profiles) != len(req.Techniques):
		r.err = fmt.Errorf("job %s streamed %d profiles, requested %d", r.id, len(profiles), len(req.Techniques))
	}
	return r
}

// stream reads GET /v1/jobs/{id}/stream until the end record.
func (c *client) stream(ctx context.Context, id string) (*serve.JobView, map[string][]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	profiles := map[string][]byte{}
	for {
		var rec struct {
			Type      string          `json:"type"`
			Technique string          `json:"technique"`
			Profile   json.RawMessage `json:"profile"`
			Job       *serve.JobView  `json:"job"`
		}
		if err := dec.Decode(&rec); err != nil {
			return nil, nil, fmt.Errorf("stream %s ended before its end record: %w", id, err)
		}
		switch rec.Type {
		case "profile":
			profiles[rec.Technique] = rec.Profile
		case "end":
			if rec.Job == nil {
				return nil, nil, fmt.Errorf("stream %s: end record without a job", id)
			}
			io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
			return rec.Job, profiles, nil
		}
	}
}

// do sends one request and returns the status and body.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// closedLoop sizes one run of drive: clients each submit a job, wait
// for its end record, then take the next job index. Indices start at
// first; no job starts after until, unless until is zero (the first job
// always starts), or at first+maxJobs and beyond when maxJobs > 0. When
// done is set, it counts the jobs as they end.
type closedLoop struct {
	clients, first, maxJobs int
	until                   time.Time
	done                    *atomic.Int64
}

// drive runs the closed loop against url and returns the jobs in index
// order. Streamed profiles are compared with mix.want as they arrive and
// kept only for the jobs checkServed checks.
func drive(ctx context.Context, url string, l closedLoop, mix jobMix, tr *tracer) []jobResult {
	var next atomic.Int64
	next.Store(int64(l.first))
	var mu sync.Mutex
	var results []jobResult
	var wg sync.WaitGroup
	for k := 0; k < l.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(url)
			defer c.http.CloseIdleConnections()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if (l.maxJobs > 0 && i >= l.first+l.maxJobs) || (!l.until.IsZero() && i > l.first && time.Now().After(l.until)) {
					return
				}
				req := mix.request(i)
				r := c.job(ctx, i, req, tr)
				if l.done != nil {
					l.done.Add(1)
				}
				if want := mix.want[req.Workload]; r.err == nil && want != nil {
					for name, doc := range r.profiles {
						if !bytes.Equal(doc, want[name]) {
							r.err = fmt.Errorf("job %s: streamed %s profile differs from the local analysis run", r.id, name)
						}
					}
				}
				r.checked = (i-l.first)%checkEvery == 0
				if !r.checked {
					r.profiles = nil
				} else if r.err == nil {
					// Fetched now, while the server still retains the job.
					r.raw, r.err = c.rawProfiles(ctx, r.id, mix.techniques)
				}
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(results, func(a, b int) bool { return results[a].index < results[b].index })
	return results
}

// checkJobs counts the jobs in the report and fails the ones that
// failed. It returns the latencies of the jobs that succeeded.
func checkJobs(rep *report, results []jobResult) []float64 {
	var lat []float64
	for _, r := range results {
		rep.attempted++
		if r.err != nil {
			rep.fail("job %d: %v", r.index, r.err)
			continue
		}
		lat = append(lat, r.latencyMs)
	}
	return lat
}

// rawProfiles fetches a finished job's profiles from the raw-profile
// endpoint, which serves the bytes pics.WriteJSON produced.
func (c *client) rawProfiles(ctx context.Context, id string, techniques []string) (map[string][]byte, error) {
	raw := map[string][]byte{}
	for _, name := range techniques {
		status, doc, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/profiles/"+name, nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("job %s: raw %s profile: status %d: %s", id, name, status, doc)
		}
		raw[name] = doc
	}
	return raw, nil
}

// checkServed compares the checked jobs' streamed and raw-profile bytes
// with a local analysis run of the same request.
func checkServed(ctx context.Context, rep *report, results []jobResult, mix jobMix) error {
	for _, r := range results {
		if !r.checked || r.err != nil {
			continue
		}
		req := mix.request(r.index)
		ref, err := reference(ctx, req)
		if err != nil {
			return err
		}
		for _, name := range req.Techniques {
			switch {
			case !bytes.Equal(r.raw[name], ref[name]):
				rep.fail("job %s: raw %s profile (%d bytes) differs from the local analysis run (%d bytes)", r.id, name, len(r.raw[name]), len(ref[name]))
			case !bytes.Equal(r.profiles[name], streamEncoding(ref[name])):
				rep.fail("job %s: streamed %s profile differs from the local analysis run", r.id, name)
			}
		}
	}
	return nil
}

// setServeStages reports the serve layer's stage medians.
func (r *report) setServeStages(results []jobResult) {
	var submit, queue, run, post []float64
	rejected := 0
	for _, j := range results {
		if j.rejected {
			rejected++
		}
		if j.err != nil {
			continue
		}
		submit = append(submit, j.submitMs)
		queue = append(queue, j.queueMs)
		run = append(run, j.runMs)
		// The job was admitted after its POST was sent, so this is at
		// least the time from the server finishing the job to the end
		// record reaching the client: rendering, streaming, and waiting
		// for the CPU the other jobs hold.
		post = append(post, j.latencyMs-j.queueMs-j.runMs)
	}
	r.set("serve.submit_ms_p50", median(submit), "ms")
	r.set("serve.queue_ms_p50", median(queue), "ms")
	r.set("serve.run_ms_p50", median(run), "ms")
	r.set("serve.post_run_ms_p50", median(post), "ms")
	r.set("serve.rejected", float64(rejected), "count")
}

// runServe runs serve-tea. Set-up starts a memory-only server on a fresh
// trace store and serves one warm-up job per program, so the timed jobs
// find every capture in the store.
func runServe(ctx context.Context, o options, rep *report, tr *tracer) error {
	mix := jobMix{programs: servePrograms, techniques: []string{"tea"}, seed: o.seed, scale: o.scale}
	setups := make([]float64, o.setups)
	for i := range setups {
		t0 := time.Now()
		analysis.SetTraceStore(analysis.NewTraceStore(analysis.DefaultStoreBudget, ""))
		err := withServer(ctx, false, nil, func(url string) error {
			warm := drive(ctx, url, closedLoop{clients: 1, maxJobs: len(mix.programs)}, mix, nil)
			setups[i] = time.Since(t0).Seconds()
			for _, r := range warm {
				if r.err != nil {
					return fmt.Errorf("warm-up job %d: %w", r.index, r.err)
				}
			}
			if i < len(setups)-1 {
				return nil
			}
			return serveTimed(ctx, o, url, mix, rep, tr)
		})
		if err != nil {
			return err
		}
	}
	if !o.trace {
		rep.setSetup(setups)
		return nil
	}
	// serve-tea's server keeps no journal: measure the journal layer on
	// the same jobs through a durable server.
	return probeServing(ctx, o, mix.programs, mix.techniques, false, tr, rep)
}

// serveTimed runs serve-tea's timed phase against url and checks what
// was served. A traced run measures the layers first and then splits
// the time between an untraced and a traced half.
func serveTimed(ctx context.Context, o options, url string, mix jobMix, rep *report, tr *tracer) error {
	// Every job of a program is the same request: check every streamed
	// profile against one local run per program.
	mix.want = map[string]map[string][]byte{}
	for i, name := range mix.programs {
		ref, err := reference(ctx, mix.request(i))
		if err != nil {
			return err
		}
		mix.want[name] = map[string][]byte{}
		for tech, doc := range ref {
			mix.want[name][tech] = streamEncoding(doc)
		}
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	first := len(mix.programs) // indices below first were the warm-up jobs
	phase := func(tr *tracer) ([]jobResult, []float64, []window, time.Duration) {
		var done atomic.Int64
		var res []jobResult
		t0 := time.Now()
		windows := sampled(&done, func() {
			res = drive(ctx, url, closedLoop{clients: clients, first: first, maxJobs: o.maxOps, until: t0.Add(budget), done: &done}, mix, tr)
		})
		wall := time.Since(t0)
		first += len(res)
		return res, checkJobs(rep, res), windows, wall
	}

	if !o.trace {
		res, lat, windows, wall := phase(nil)
		rep.setTimed(lat, windows, wall, "one job, from POST sent to stream end record received")
		return checkServed(ctx, rep, res, mix)
	}

	// Traced run: every layer on its own, then the untraced half, then
	// the traced half, so that both halves run after the same work.
	if err := measureLayers(ctx, mix.programs, requestConfig(mix.request(0)), mix.techniques, tr, rep); err != nil {
		return err
	}
	store := analysis.TraceStore()
	s0, n0, rt0 := store.Snapshot(), analysis.CaptureCount(), readRuntime()
	res0, lat0, _, _ := phase(nil)
	s1, n1, rt1 := store.Snapshot(), analysis.CaptureCount(), readRuntime()
	perJob := func(d uint64) float64 { return float64(d) / float64(len(res0)) }
	rep.set("analysis.captures", perJob(n1-n0), "count/op")
	rep.set("tracestore.hits", perJob(s1.Hits-s0.Hits), "count/op")
	rep.set("tracestore.misses", perJob(s1.Misses-s0.Misses), "count/op")
	rep.set("tracestore.puts", perJob(s1.Puts-s0.Puts), "count/op")
	rep.setGC(rt0, rt1, len(res0))

	res1, lat1, _, _ := phase(tr)
	rep.setServeStages(res1)
	rep.set("bench.trace_overhead_frac", median(lat1)/median(lat0)-1, "fraction")
	rep.note("trace overhead: traced job median %.2f ms (n=%d) against untraced median %.2f ms (n=%d)",
		median(lat1), len(lat1), median(lat0), len(lat0))
	return checkServed(ctx, rep, append(res0, res1...), mix)
}

// probeServing serves one job per program through a fresh durable
// server, one job at a time, for the workloads whose own traffic does
// not reach the serve or journal layer. It reports the journal layer
// and, with stages set, the serve layer's stage medians.
func probeServing(ctx context.Context, o options, programs, techniques []string, stages bool, tr *tracer, rep *report) error {
	mix := jobMix{programs: programs, techniques: techniques, seed: o.seed, scale: o.scale}
	fs := newTimingFS(tr)
	var res []jobResult
	err := withServer(ctx, true, fs, func(url string) error {
		fs.on.Store(true)
		res = drive(ctx, url, closedLoop{clients: 1, maxJobs: len(programs)}, mix, tr)
		return nil
	})
	if err != nil {
		return err
	}
	for _, r := range res {
		if r.err != nil {
			return fmt.Errorf("serving probe job %d: %w", r.index, r.err)
		}
	}
	if stages {
		rep.setServeStages(res)
	}
	rep.setJournal(fs.stats(res), len(res))
	return nil
}
