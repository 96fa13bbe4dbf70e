package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/program"
	"repro/internal/simerr"
	"repro/internal/workloads"
)

// Status is a job's lifecycle state.
type Status string

// The job lifecycle: queued → running → done | failed | canceled.
const (
	// StatusQueued: admitted, waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning: a worker is simulating or replaying the job.
	StatusRunning Status = "running"
	// StatusDone: profiles are available (individual techniques may
	// still have failed — see JobView.TechniqueErrors).
	StatusDone Status = "done"
	// StatusFailed: the run produced no profiles; JobView.Error holds
	// the typed failure.
	StatusFailed Status = "failed"
	// StatusCanceled: stopped by client request, per-job timeout, or
	// server shutdown before completing.
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// JobRequest is the POST /v1/jobs body. Exactly one of Workload and
// Program selects what to profile; unknown fields are rejected.
type JobRequest struct {
	// Tenant identifies the quota bucket and shows up in /v1/stats;
	// empty maps to "anonymous".
	Tenant string `json:"tenant,omitempty"`
	// Workload names a suite benchmark (workloads.Names); the program
	// is built at Config.Scale exactly as the experiment harness would.
	Workload string `json:"workload,omitempty"`
	// Program describes an inline program instead of a suite workload.
	Program *ProgramSpec `json:"program,omitempty"`
	// Config overrides RunConfig knobs; absent fields keep the
	// evaluation defaults.
	Config *ConfigSpec `json:"config,omitempty"`
	// Techniques lists the profiles to return (AllTechniques; default
	// ["tea"]).
	Techniques []string `json:"techniques,omitempty"`
}

// ProgramSpec parametrizes an inline program: a workload kernel built
// with an explicit iteration count and, for the case-study kernels,
// their tuning knobs. It is the service-safe subset of the
// program-construction API — requests choose parameters, never raw
// instructions, so every buildable program is one the simulator's
// guards already cover.
type ProgramSpec struct {
	// Kind is a suite workload name; "lbm" and "nab" additionally
	// accept their case-study knobs below.
	Kind string `json:"kind"`
	// Iters is the kernel iteration count (2 .. Config.MaxIters).
	Iters int `json:"iters"`
	// PrefetchDist inserts software prefetches this many iterations
	// ahead (lbm only; 0 disables, max 64).
	PrefetchDist int `json:"prefetch_dist,omitempty"`
	// FastMath replaces the serializing flag accesses with the
	// fast-math variant (nab only).
	FastMath bool `json:"fast_math,omitempty"`
}

// ConfigSpec is the RunConfig surface a job may override. Pointer
// fields distinguish "absent" (keep the default) from an explicit zero
// (rejected where invalid).
type ConfigSpec struct {
	// Interval is the sampling period in cycles (must be > 0).
	Interval *uint64 `json:"interval,omitempty"`
	// Jitter decorrelates the sample clock (default: interval/16).
	Jitter *uint64 `json:"jitter,omitempty"`
	// Seed drives the sample-clock jitter.
	Seed *uint64 `json:"seed,omitempty"`
	// Scale multiplies the workload's default iteration count
	// (0 < scale ≤ Config.MaxScale; ignored for inline programs, whose
	// Iters is explicit).
	Scale *float64 `json:"scale,omitempty"`
}

// AllTechniques lists the valid JobRequest.Techniques entries in
// evaluation order: golden, tea, nci-tea, ibs, spe, ris. "golden" is
// the per-cycle reference attribution; the rest are the sampled
// techniques of Figure 5.
var AllTechniques = analysis.ProfileTechniques()

// job is one submitted profiling job and its mutable lifecycle state.
type job struct {
	id     string
	tenant string
	w      workloads.Workload
	// prog is the built program to run. The terminal transition drops
	// it (a finished job is kept for its results, not its input);
	// program keeps its name for the job view.
	prog       *program.Program
	program    string
	rc         analysis.RunConfig
	techniques []string

	// req is the validated request, retained for journaling; nil for
	// display-only shells restored from a broken journal payload.
	req *JobRequest
	// journaled gates this job's later journal records behind its
	// submitted record (closed once that append finished, successfully
	// or not); nil when journaling is off or the job was recovered.
	journaled chan struct{}

	mu        sync.Mutex
	changed   chan struct{} // closed and replaced on every state change
	status    Status
	err       *ErrorBody
	techErrs  map[string]*ErrorBody
	profiles  map[string][]byte
	cancelReq bool
	cancel    context.CancelFunc
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// JobView is the wire representation of a job (GET /v1/jobs/{id} and
// the stream's terminal record).
type JobView struct {
	// ID is the server-assigned job identifier ("j-000001"; IDs sort in
	// submission order).
	ID string `json:"id"`
	// Tenant is the quota bucket the job was charged to.
	Tenant string `json:"tenant"`
	// Status is the lifecycle state.
	Status Status `json:"status"`
	// Workload is the benchmark name the job profiles.
	Workload string `json:"workload"`
	// Program is the built program's name (for inline lbm jobs this
	// includes the prefetch distance, e.g. "lbm(pd=3)").
	Program string `json:"program"`
	// Techniques echoes the requested technique list after defaulting.
	Techniques []string `json:"techniques"`
	// QueueMs is the time from admission to a worker picking the job
	// up (0 while queued).
	QueueMs float64 `json:"queue_ms"`
	// RunMs is the time from pickup to the terminal state (0 until
	// finished).
	RunMs float64 `json:"run_ms"`
	// Error is the typed failure of a failed or canceled job.
	Error *ErrorBody `json:"error,omitempty"`
	// TechniqueErrors maps techniques whose replay probe failed to
	// their typed errors; the remaining Profiles are complete.
	TechniqueErrors map[string]*ErrorBody `json:"technique_errors,omitempty"`
	// Profiles maps each requested technique to its PICS profile.
	// Embedded here the document is re-encoded by the envelope encoder
	// (JSON-equivalent); GET /v1/jobs/{id}/profiles/{technique} serves
	// the byte-identical pics.WriteJSON artifact.
	Profiles map[string]json.RawMessage `json:"profiles,omitempty"`
}

// newJob wraps a validated request; the caller assigns the ID on
// admission.
func newJob(tenant string, w workloads.Workload, p *program.Program, rc analysis.RunConfig, techniques []string, now time.Time) *job {
	return &job{
		tenant:     tenant,
		w:          w,
		prog:       p,
		program:    p.Name,
		rc:         rc,
		techniques: techniques,
		changed:    make(chan struct{}),
		status:     StatusQueued,
		submitted:  now,
	}
}

// broadcastLocked wakes every stream watcher. Callers hold j.mu around
// the state change; the channel swap is part of the same critical
// section, the close happens after unlock via the returned func.
func (j *job) broadcastLocked() chan struct{} {
	ch := j.changed
	j.changed = make(chan struct{})
	return ch
}

// watch returns a channel closed at the job's next state change (or
// already closed if one raced the caller's snapshot).
func (j *job) watch() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.changed
}

// begin transitions queued → running and installs the worker's cancel
// hook. It reports false — finalizing the job as canceled — when a
// cancellation raced the pickup.
func (j *job) begin(now time.Time, cancel context.CancelFunc) bool {
	j.mu.Lock()
	if j.cancelReq {
		j.status = StatusCanceled
		j.err = &ErrorBody{Kind: kindCanceled, Status: statusForKind(kindCanceled), Message: "canceled before running"}
		j.finished = now
		j.prog = nil
		ch := j.broadcastLocked()
		j.mu.Unlock()
		close(ch)
		return false
	}
	j.status = StatusRunning
	j.started = now
	j.cancel = cancel
	ch := j.broadcastLocked()
	j.mu.Unlock()
	close(ch)
	return true
}

// requestCancel asks the job to stop: queued jobs are canceled when a
// worker next drains them, running jobs get their context canceled. It
// reports false when the job is already terminal.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.cancelReq = true
	cancel := j.cancel
	ch := j.broadcastLocked()
	j.mu.Unlock()
	close(ch)
	if cancel != nil {
		cancel()
	}
	return true
}

// fail finalizes the job without profiles.
func (j *job) fail(now time.Time, body *ErrorBody, status Status) {
	j.mu.Lock()
	j.status = status
	j.err = body
	j.finished = now
	j.cancel = nil
	j.prog = nil
	ch := j.broadcastLocked()
	j.mu.Unlock()
	close(ch)
}

// complete finalizes the job with its rendered profiles. The documents
// may be shared with the server's profile memo and other jobs: they are
// only ever read.
func (j *job) complete(now time.Time, profiles map[string][]byte, techErrs map[string]*ErrorBody) {
	j.mu.Lock()
	j.status = StatusDone
	j.profiles = profiles
	j.techErrs = techErrs
	j.finished = now
	j.cancel = nil
	j.prog = nil
	ch := j.broadcastLocked()
	j.mu.Unlock()
	close(ch)
}

// profileBytes returns the stored pics.WriteJSON document for one
// technique, exactly as the writer produced it — the raw-profile
// endpoint's byte-identical contract. The second result reports whether
// the technique failed (with its typed error); ok is false while the
// job has no profiles at all.
func (j *job) profileBytes(name string) (doc []byte, techErr *ErrorBody, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terr := j.techErrs[name]; terr != nil {
		return nil, terr, true
	}
	doc, ok = j.profiles[name]
	return doc, nil, ok
}

// view snapshots the job for the wire; includeProfiles controls
// whether the (potentially large) profile documents ride along.
func (j *job) view(includeProfiles bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:         j.id,
		Tenant:     j.tenant,
		Status:     j.status,
		Workload:   j.w.Name,
		Program:    j.program,
		Techniques: j.techniques,
		Error:      j.err,
	}
	if !j.started.IsZero() {
		v.QueueMs = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		v.RunMs = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	if len(j.techErrs) > 0 {
		v.TechniqueErrors = make(map[string]*ErrorBody, len(j.techErrs))
		for name, body := range j.techErrs {
			v.TechniqueErrors[name] = body
		}
	}
	if includeProfiles && j.profiles != nil {
		v.Profiles = make(map[string]json.RawMessage, len(j.profiles))
		for name, doc := range j.profiles {
			v.Profiles[name] = json.RawMessage(doc)
		}
	}
	return v
}

// buildJob validates a request into a runnable job. Every defect comes
// back as a typed *simerr.Error (ErrInvalidConfig or ErrInvalidProgram),
// which the HTTP layer maps to 400 — user input is rejected here or
// runs under the simulator's guards, never anywhere it could panic the
// server.
func (s *Server) buildJob(req *JobRequest) (*job, error) {
	rc := analysis.DefaultRunConfig()
	if req.Config != nil {
		if req.Config.Interval != nil {
			rc = rc.WithInterval(*req.Config.Interval)
		}
		if req.Config.Jitter != nil {
			rc.Jitter = *req.Config.Jitter
		}
		if req.Config.Seed != nil {
			rc.Seed = *req.Config.Seed
		}
		if req.Config.Scale != nil {
			rc.Scale = *req.Config.Scale
		}
	}
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	if rc.Scale > s.cfg.MaxScale {
		return nil, simerr.New(simerr.ErrInvalidConfig, simerr.Snapshot{},
			"config.scale %v exceeds the server's %v", rc.Scale, s.cfg.MaxScale)
	}

	techniques, err := normalizeTechniques(req.Techniques)
	if err != nil {
		return nil, err
	}

	var w workloads.Workload
	var p *program.Program
	switch {
	case req.Workload != "" && req.Program != nil:
		return nil, simerr.New(simerr.ErrInvalidConfig, simerr.Snapshot{},
			"workload and program are mutually exclusive")
	case req.Workload != "":
		w, err = workloads.ByName(req.Workload)
		if err != nil {
			return nil, err
		}
		p = w.Build(rc.Iters(w))
	case req.Program != nil:
		w, p, err = s.buildProgram(req.Program)
		if err != nil {
			return nil, err
		}
	default:
		return nil, simerr.New(simerr.ErrInvalidConfig, simerr.Snapshot{},
			"request needs a workload name or an inline program")
	}

	tenant := req.Tenant
	if tenant == "" {
		tenant = "anonymous"
	}
	j := newJob(tenant, w, p, rc, techniques, s.cfg.Now())
	// Retain the normalized request so the journal's submitted record
	// rebuilds this job identically on replay.
	norm := *req
	norm.Tenant = tenant
	norm.Techniques = techniques
	j.req = &norm
	return j, nil
}

// buildProgram materializes an inline ProgramSpec.
func (s *Server) buildProgram(spec *ProgramSpec) (workloads.Workload, *program.Program, error) {
	w, err := workloads.ByName(spec.Kind)
	if err != nil {
		return workloads.Workload{}, nil, err
	}
	if spec.Iters < 2 || spec.Iters > s.cfg.MaxIters {
		return workloads.Workload{}, nil, simerr.New(simerr.ErrInvalidProgram,
			simerr.Snapshot{Workload: spec.Kind},
			"program.iters %d outside [2, %d]", spec.Iters, s.cfg.MaxIters)
	}
	if spec.PrefetchDist != 0 && spec.Kind != "lbm" {
		return workloads.Workload{}, nil, simerr.New(simerr.ErrInvalidProgram,
			simerr.Snapshot{Workload: spec.Kind},
			"program.prefetch_dist applies only to kind \"lbm\"")
	}
	if err := workloads.CheckPrefetchDist(spec.PrefetchDist); err != nil {
		return workloads.Workload{}, nil, err
	}
	if spec.FastMath && spec.Kind != "nab" {
		return workloads.Workload{}, nil, simerr.New(simerr.ErrInvalidProgram,
			simerr.Snapshot{Workload: spec.Kind},
			"program.fast_math applies only to kind \"nab\"")
	}
	switch spec.Kind {
	case "lbm":
		return w, workloads.LBM(spec.Iters, spec.PrefetchDist), nil
	case "nab":
		return w, workloads.NAB(spec.Iters, spec.FastMath), nil
	default:
		return w, w.Build(spec.Iters), nil
	}
}

// normalizeTechniques validates and deduplicates the requested list;
// empty defaults to ["tea"].
func normalizeTechniques(req []string) ([]string, error) {
	if len(req) == 0 {
		return []string{"tea"}, nil
	}
	valid := make(map[string]bool, len(AllTechniques))
	for _, t := range AllTechniques {
		valid[t] = true
	}
	seen := make(map[string]bool, len(req))
	out := make([]string, 0, len(req))
	for _, t := range req {
		if !valid[t] {
			return nil, simerr.New(simerr.ErrInvalidConfig, simerr.Snapshot{Technique: t},
				"unknown technique %q (valid: %v)", t, AllTechniques)
		}
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out, nil
}
