// Durability layer: the service's write-ahead journaling and crash
// recovery, layered over internal/journal.
//
// With Config.JournalDir set, every job state transition is appended to
// the WAL before the next transition for that job can be journaled
// (submissions gate later records through job.journaled, so replay
// never sees "running" before "submitted"), and terminal profiles are
// persisted as content-verified result files. On startup New replays
// the WAL: terminal jobs are restored with their exact pre-crash bytes
// (the raw-profile endpoint serves the same document after a kill -9),
// and jobs that were queued or running when the process died are
// re-enqueued — the tracestore's capture dedup makes the re-run
// idempotent, so an interrupted job completes with profiles
// byte-identical to an uninterrupted one.
//
// Journaling failure is never a job failure. A runtime append or
// result-write error flips the server into degraded memory-only mode:
// the incident is logged and counted, /v1/healthz reports the mode,
// /v1/readyz goes not-ready, and the server keeps serving correct
// bytes from memory. The one thing the service never does is serve
// wrong data — a result file that fails its digest on recovery
// resurfaces the job as failed with a typed error, not as a 500 and
// not as silently different bytes.
package serve

import (
	"encoding/json"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/journal"
	"repro/internal/program"
	"repro/internal/simerr"
	"repro/internal/workloads"
	"repro/internal/xiter"
)

// Journal record types. The journal package is semantics-free; these
// strings are the service's replay contract (a WAL is only readable by
// the serve version that wrote it, policed by journal.FormatVersion).
const (
	recSubmitted = "submitted" // Data: submitData
	recRunning   = "running"   // no Data
	recCancel    = "cancel"    // no Data (client cancel request)
	recDone      = "done"      // Data: terminalData (Results set)
	recFailed    = "failed"    // Data: terminalData (Error set)
	recCanceled  = "canceled"  // Data: terminalData (Error set)
)

// submitData is the recSubmitted payload: the validated request,
// sufficient to rebuild the job deterministically on replay.
type submitData struct {
	Req JobRequest `json:"req"`
}

// terminalData is the payload of the three terminal record types.
type terminalData struct {
	// Error is the typed failure of a failed/canceled job.
	Error *ErrorBody `json:"error,omitempty"`
	// TechErrs carries per-technique replay failures of a done job.
	TechErrs map[string]*ErrorBody `json:"technique_errors,omitempty"`
	// Results points each successful technique at its verified result
	// file.
	Results map[string]journal.ResultRef `json:"results,omitempty"`
}

// RecoveryStats reports what journal replay found at startup
// (surfaced through /v1/stats).
type RecoveryStats struct {
	// Replayed counts intact WAL records folded at startup.
	Replayed int `json:"replayed"`
	// TornBytes is the size of the torn tail truncated on open.
	TornBytes int64 `json:"torn_bytes"`
	// RestoredDone / RestoredFailed / RestoredCanceled count terminal
	// jobs restored with their pre-crash state.
	RestoredDone     int `json:"restored_done"`
	RestoredFailed   int `json:"restored_failed"`
	RestoredCanceled int `json:"restored_canceled"`
	// Requeued counts interrupted (queued or running) jobs put back on
	// the queue.
	Requeued int `json:"requeued"`
	// DuplicateTerminals counts terminal records for already-terminal
	// jobs (ignored; the first terminal record wins).
	DuplicateTerminals int `json:"duplicate_terminals"`
	// UnknownJobRecords counts records referencing a job with no
	// submitted record (skipped).
	UnknownJobRecords int `json:"unknown_job_records"`
	// MalformedRecords counts records whose payload or type was
	// unintelligible (skipped; framing-level corruption fails Open
	// instead).
	MalformedRecords int `json:"malformed_records"`
	// ResultLoadFailures counts done jobs restored as failed because a
	// result file was missing or failed verification.
	ResultLoadFailures int `json:"result_load_failures"`
}

// Service modes, reported by /v1/healthz, /v1/readyz, and /v1/stats.
const (
	// ModeDurable: journaling active; restarts recover all jobs.
	ModeDurable = "durable"
	// ModeMemoryOnly: no journal configured; a restart loses all jobs.
	ModeMemoryOnly = "memory-only"
	// ModeDegraded: journaling was active but hit a disk fault and was
	// switched off; the server keeps serving from memory.
	ModeDegraded = "degraded"
)

// Mode reports the durability mode.
func (s *Server) Mode() string {
	if s.journal == nil {
		return ModeMemoryOnly
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur.DegradedReason != "" {
		return ModeDegraded
	}
	return ModeDurable
}

// Close releases the journal (if any). The worker pool is stopped
// separately by canceling Run's context.
func (s *Server) Close() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Close()
}

// degrade switches journaling off after a runtime disk fault. The
// server continues memory-only: jobs keep running and results stay
// correct, but a restart from here loses post-degradation state (the
// operator signal is /v1/readyz + the stats counters). reason must not
// be empty: a non-empty DegradedReason is what marks the server
// degraded.
func (s *Server) degrade(reason string) {
	s.mu.Lock()
	already := s.dur.DegradedReason != ""
	if !already {
		s.dur.DegradedReason = reason
	}
	s.mu.Unlock()
	if !already {
		s.cfg.Logf("teaserve: journal fault, degrading to memory-only mode: %s", reason)
	}
}

// journalActive reports whether appends should be attempted.
func (s *Server) journalActive() bool { return s.Mode() == ModeDurable }

// journalAppend appends one record for j, waiting for the job's
// submitted record to commit first so per-job ordering holds in the
// WAL. Failures degrade the server and are never surfaced to the job.
func (s *Server) journalAppend(j *job, typ string, data any) {
	if !s.journalActive() {
		return
	}
	if j.journaled != nil && typ != recSubmitted {
		<-j.journaled
	}
	var raw json.RawMessage
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			s.degrade("encode " + typ + " record: " + err.Error())
			return
		}
		raw = b
	}
	err := s.journal.Append(journal.Record{
		Type:       typ,
		JobID:      j.id,
		TimeUnixMs: s.cfg.Now().UnixMilli(),
		Data:       raw,
	})
	s.mu.Lock()
	s.dur.JournalAppends++
	if err != nil {
		s.dur.JournalAppendErrors++
	}
	s.mu.Unlock()
	if err != nil {
		s.degrade("append " + typ + " record: " + err.Error())
	}
}

// journalSubmitted commits the job's submitted record and releases the
// per-job ordering gate (always, so a degraded append never deadlocks
// later records).
func (s *Server) journalSubmitted(j *job) {
	if j.journaled != nil {
		defer close(j.journaled)
	}
	if j.req == nil {
		return
	}
	s.journalAppend(j, recSubmitted, submitData{Req: *j.req})
}

// journalDone persists a completed job: result files first (verified
// refs), then the terminal record pointing at them. Any write failure
// degrades and skips the record entirely — replay will re-enqueue the
// job, and capture dedup makes that re-run cheap and byte-identical.
func (s *Server) journalDone(j *job, profiles map[string][]byte, techErrs map[string]*ErrorBody) {
	if !s.journalActive() {
		return
	}
	refs := make(map[string]journal.ResultRef, len(profiles))
	for _, name := range xiter.SortedKeys(profiles) {
		ref, err := s.journal.WriteResult(j.id, name, profiles[name])
		s.mu.Lock()
		s.dur.ResultWrites++
		if err != nil {
			s.dur.ResultWriteErrors++
		}
		s.mu.Unlock()
		if err != nil {
			s.degrade("write result " + j.id + "/" + name + ": " + err.Error())
			return
		}
		refs[name] = ref
	}
	s.journalAppend(j, recDone, terminalData{TechErrs: techErrs, Results: refs})
}

// journalTerminal records a failed or canceled outcome.
func (s *Server) journalTerminal(j *job, status Status, body *ErrorBody) {
	typ := recFailed
	if status == StatusCanceled {
		typ = recCanceled
	}
	s.journalAppend(j, typ, terminalData{Error: body})
}

// replayedJob is the folded per-job state during WAL replay.
type replayedJob struct {
	id        string
	req       *JobRequest
	running   bool
	cancelReq bool
	termType  string
	term      *terminalData
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// restore folds the recovered WAL records into the registry and
// returns the interrupted jobs to re-enqueue. It runs inside New,
// before the server is shared, so it touches fields without locks.
func (s *Server) restore(rec *journal.Recovery) []*job {
	s.dur.Recovery.TornBytes = rec.TornBytes

	byID := make(map[string]*replayedJob)
	var order []string
	for _, r := range rec.Records {
		s.dur.Recovery.Replayed++
		rj := byID[r.JobID]
		switch r.Type {
		case recSubmitted:
			var d submitData
			if err := json.Unmarshal(r.Data, &d); err != nil {
				s.dur.Recovery.MalformedRecords++
				continue
			}
			if rj == nil {
				rj = &replayedJob{id: r.JobID}
				byID[r.JobID] = rj
				order = append(order, r.JobID)
			}
			rj.req = &d.Req
			rj.submitted = time.UnixMilli(r.TimeUnixMs)
		case recRunning:
			if rj == nil {
				s.dur.Recovery.UnknownJobRecords++
				continue
			}
			rj.running = true
			rj.started = time.UnixMilli(r.TimeUnixMs)
		case recCancel:
			if rj == nil {
				s.dur.Recovery.UnknownJobRecords++
				continue
			}
			rj.cancelReq = true
		case recDone, recFailed, recCanceled:
			if rj == nil {
				s.dur.Recovery.UnknownJobRecords++
				continue
			}
			if rj.term != nil {
				s.dur.Recovery.DuplicateTerminals++
				continue
			}
			var d terminalData
			if err := json.Unmarshal(r.Data, &d); err != nil {
				s.dur.Recovery.MalformedRecords++
				continue
			}
			rj.termType = r.Type
			rj.term = &d
			rj.finished = time.UnixMilli(r.TimeUnixMs)
		default:
			s.dur.Recovery.MalformedRecords++
		}
	}

	var requeue []*job
	for _, id := range order {
		rj := byID[id]
		s.bumpSeq(id)
		j := s.restoreOne(rj, &requeue)
		if j == nil {
			continue
		}
		j.id = id
		j.submitted = rj.submitted
		j.started = rj.started
		j.finished = rj.finished
		s.jobs[id] = j
		s.stats.byStatus[j.status]++
		s.tenantStatsLocked(j.tenant).Submitted++
		if j.status.Terminal() {
			j.prog = nil
			s.retireLocked(id)
		}
	}
	return requeue
}

// restoreOne materializes one replayed job. Interrupted jobs are
// appended to requeue; terminal jobs come back with their journaled
// outcome — a done job whose result files fail verification is
// restored as failed with the typed load error, never served with
// unverified bytes.
func (s *Server) restoreOne(rj *replayedJob, requeue *[]*job) *job {
	j, buildErr := s.rebuild(rj)

	switch {
	case rj.term == nil && rj.cancelReq:
		// Canceled while queued/running, then crashed before the
		// terminal record: finalize as canceled.
		j.status = StatusCanceled
		j.err = &ErrorBody{Kind: kindCanceled, Status: statusForKind(kindCanceled),
			Message: "canceled before the crash; finalized on recovery"}
		s.dur.Recovery.RestoredCanceled++
	case rj.term == nil:
		// Interrupted mid-queue or mid-run: run it (again). Capture
		// dedup makes the re-run idempotent.
		if buildErr != nil {
			j.status = StatusFailed
			j.err = errorBody(buildErr)
			s.dur.Recovery.RestoredFailed++
			return j
		}
		j.status = StatusQueued
		*requeue = append(*requeue, j)
		s.dur.Recovery.Requeued++
	case rj.termType == recDone:
		profiles := make(map[string][]byte, len(rj.term.Results))
		var loadErr error
		for _, name := range xiter.SortedKeys(rj.term.Results) {
			data, err := s.journal.ReadResult(rj.term.Results[name])
			if err != nil {
				loadErr = err
				break
			}
			profiles[name] = data
		}
		if loadErr != nil {
			j.status = StatusFailed
			j.err = errorBody(simerr.Wrap(simerr.ErrDecode, simerr.Snapshot{}, loadErr,
				"job %s recovered as done but its result files fail verification", rj.id))
			s.dur.Recovery.ResultLoadFailures++
			s.dur.Recovery.RestoredFailed++
			return j
		}
		j.status = StatusDone
		j.profiles = profiles
		j.techErrs = rj.term.TechErrs
		s.dur.Recovery.RestoredDone++
	case rj.termType == recFailed:
		j.status = StatusFailed
		j.err = rj.term.Error
		s.dur.Recovery.RestoredFailed++
	default: // recCanceled
		j.status = StatusCanceled
		j.err = rj.term.Error
		s.dur.Recovery.RestoredCanceled++
	}
	return j
}

// rebuild reconstructs a runnable job from its journaled request. When
// validation fails (limits tightened across the restart, or a
// malformed request payload), it returns a display-only shell plus the
// error — terminal jobs only need the shell; interrupted jobs become
// failed-typed.
func (s *Server) rebuild(rj *replayedJob) (*job, error) {
	if rj.req == nil {
		return s.shellJob(rj), simerr.New(simerr.ErrDecode, simerr.Snapshot{},
			"journal holds no request payload for job %s", rj.id)
	}
	j, err := s.buildJob(rj.req)
	if err != nil {
		return s.shellJob(rj), err
	}
	return j, nil
}

// shellJob builds a minimal displayable job for records whose request
// cannot be rebuilt. It is never enqueued.
func (s *Server) shellJob(rj *replayedJob) *job {
	var req JobRequest
	if rj.req != nil {
		req = *rj.req
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "anonymous"
	}
	name := req.Workload
	if name == "" && req.Program != nil {
		name = req.Program.Kind
	}
	if name == "" {
		name = "unknown"
	}
	j := newJob(tenant, workloads.Workload{Name: name}, &program.Program{Name: name},
		analysis.RunConfig{}, req.Techniques, s.cfg.Now())
	j.req = rj.req
	return j
}

// bumpSeq advances the ID sequence past a recovered job ID so new
// submissions never collide with journaled ones.
func (s *Server) bumpSeq(id string) {
	num, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return
	}
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return
	}
	if n > s.seq {
		s.seq = n
	}
}
