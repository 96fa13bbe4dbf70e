package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/simerr"
	"repro/internal/tracestore"
	"repro/internal/xiter"
)

// Error kinds on the wire. The simulator-derived kinds mirror the
// simerr taxonomy one to one; the service kinds cover failures that
// never reach the simulator. docs/API.md carries the full mapping
// table.
const (
	kindInvalidProgram = "invalid_program" // 400 simerr.ErrInvalidProgram
	kindInvalidConfig  = "invalid_config"  // 400 simerr.ErrInvalidConfig
	kindRunaway        = "runaway"         // 422 simerr.ErrRunaway
	kindDeadlock       = "deadlock"        // 422 simerr.ErrDeadlock
	kindDecode         = "decode"          // 500 simerr.ErrDecode (internal cache path; users cannot submit traces)
	kindIO             = "io"              // 500 simerr.ErrIO (journal / result-file disk failure)
	kindCanceled       = "canceled"        // 503 simerr.ErrCanceled (job bodies only)
	kindInternal       = "internal"        // 500 simerr.ErrInternal or any unclassified error
	kindBadRequest     = "bad_request"     // 400 malformed request body
	kindBodyTooLarge   = "body_too_large"  // 413 request body over Config.MaxBodyBytes
	kindQuotaExceeded  = "quota_exceeded"  // 429 tenant token bucket empty
	kindQueueFull      = "queue_full"      // 429 admission queue full
	kindNotFound       = "not_found"       // 404 unknown job ID or path
	kindConflict       = "conflict"        // 409 cancel of a terminal job
)

// ErrorBody is the JSON error envelope's payload: a stable kind, the
// HTTP status that kind maps to, and a human-readable message. Async
// failures (inside a job resource) reuse the same shape with the
// status field advisory.
type ErrorBody struct {
	// Kind is the machine-matchable failure class.
	Kind string `json:"kind"`
	// Status is the HTTP status Kind maps to when returned
	// synchronously.
	Status int `json:"status"`
	// Message is the diagnostic, including the simulator's failure
	// snapshot (workload, cycle, PC) when one exists.
	Message string `json:"message"`
}

// statusForKind is the kind → HTTP status mapping (documented in
// docs/API.md; changing it is an API break).
func statusForKind(kind string) int {
	switch kind {
	case kindInvalidProgram, kindInvalidConfig, kindBadRequest:
		return http.StatusBadRequest
	case kindRunaway, kindDeadlock:
		return http.StatusUnprocessableEntity
	case kindQuotaExceeded, kindQueueFull:
		return http.StatusTooManyRequests
	case kindBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case kindNotFound:
		return http.StatusNotFound
	case kindConflict:
		return http.StatusConflict
	case kindCanceled:
		return http.StatusServiceUnavailable
	default: // kindDecode, kindIO, kindInternal
		return http.StatusInternalServerError
	}
}

// errorBody classifies err into the wire envelope. Every *simerr.Error
// keeps its kind and snapshot; anything else is an internal error.
func errorBody(err error) *ErrorBody {
	kind := kindInternal
	switch {
	case errors.Is(err, simerr.ErrInvalidProgram):
		kind = kindInvalidProgram
	case errors.Is(err, simerr.ErrInvalidConfig):
		kind = kindInvalidConfig
	case errors.Is(err, simerr.ErrRunaway):
		kind = kindRunaway
	case errors.Is(err, simerr.ErrDeadlock):
		kind = kindDeadlock
	case errors.Is(err, simerr.ErrDecode):
		kind = kindDecode
	case errors.Is(err, simerr.ErrIO):
		kind = kindIO
	case errors.Is(err, simerr.ErrCanceled):
		kind = kindCanceled
	}
	return &ErrorBody{Kind: kind, Status: statusForKind(kind), Message: err.Error()}
}

// errEnvelope is the top-level error response: {"error": {...}}.
type errEnvelope struct {
	Error *ErrorBody `json:"error"`
}

// SubmitResponse is the 202 body of POST /v1/jobs.
type SubmitResponse struct {
	// ID is the job identifier to poll or stream.
	ID string `json:"id"`
	// Status is the job's admission state (always "queued").
	Status Status `json:"status"`
	// QueueDepth is the queue occupancy after admission — a load
	// signal clients can use to self-pace before the server starts
	// rejecting.
	QueueDepth int `json:"queue_depth"`
}

// StoreStatsView is the trace-store section of /v1/stats: the shared
// store's own counters (tracestore.Stats documents each) and their hit
// rate.
type StoreStatsView struct {
	tracestore.Stats
	// HitRate is Stats.HitRate(). Singleflight waiters joining an
	// in-progress capture count as misses, so Captures vs completed
	// jobs is the truer dedup measure.
	HitRate float64 `json:"hit_rate"`
}

// ProfileMemoView is the profile-memo section of /v1/stats. The server
// memoises each rendered profile under its (program, configuration,
// technique) key; a job whose every technique hits is served without a
// trace-store lookup or a replay.
type ProfileMemoView struct {
	// Hits counts requested techniques served from the memo.
	Hits uint64 `json:"hits"`
	// Misses counts requested techniques the memo did not hold; each
	// was replayed.
	Misses uint64 `json:"misses"`
	// Entries is the number of profiles the memo holds.
	Entries uint64 `json:"entries"`
	// Bytes is the memo's current footprint in profile bytes.
	Bytes uint64 `json:"bytes"`
}

// CodecStatsView is the trace-codec section of /v1/stats: suite-wide
// logical (v3-equivalent) versus encoded (v4) trace bytes across every
// capture this process has written, and how much of the stream the
// pattern table absorbed. logical_bytes / encoded_bytes is the
// compression ratio operators use to size the disk tier and estimate
// transfer cost.
type CodecStatsView struct {
	// Captures counts the capture streams written.
	Captures uint64 `json:"captures"`
	// Records counts records across those streams, each stream's done
	// section included.
	Records uint64 `json:"records"`
	// MatchedRecords counts records encoded as pattern-table matches
	// rather than literals.
	MatchedRecords uint64 `json:"matched_records"`
	// LogicalBytes is the v3-equivalent record-at-a-time size of the
	// same streams.
	LogicalBytes uint64 `json:"logical_bytes"`
	// EncodedBytes is the v4 bytes actually produced.
	EncodedBytes uint64 `json:"encoded_bytes"`
	// CompressionRatio is logical_bytes/encoded_bytes (0 when idle).
	CompressionRatio float64 `json:"compression_ratio"`
	// PatternHitRate is matched_records over the block records,
	// records-captures (0 when idle): the rate `teatrace -stats`
	// prints for one stream.
	PatternHitRate float64 `json:"pattern_hit_rate"`
}

// StatsView is the GET /v1/stats body.
type StatsView struct {
	// Workers is the worker-pool size.
	Workers int `json:"workers"`
	// QueueDepth is the current queue occupancy.
	QueueDepth int `json:"queue_depth"`
	// QueueCap is the admission-control bound.
	QueueCap int `json:"queue_cap"`
	// Jobs counts jobs per lifecycle status since startup (terminal
	// states are cumulative).
	Jobs map[string]uint64 `json:"jobs"`
	// Submitted counts admitted jobs.
	Submitted uint64 `json:"submitted"`
	// RejectedQuota counts 429s from tenant quotas.
	RejectedQuota uint64 `json:"rejected_quota"`
	// RejectedQueue counts 429s from queue admission.
	RejectedQueue uint64 `json:"rejected_queue"`
	// Captures counts actual simulations performed process-wide; the
	// gap between completed jobs and captures is the cross-tenant dedup
	// win.
	Captures uint64 `json:"captures"`
	// TraceStore is the shared cache tier's traffic.
	TraceStore StoreStatsView `json:"tracestore"`
	// ProfileMemo is this server's memo of rendered profiles.
	ProfileMemo ProfileMemoView `json:"profile_memo"`
	// Codec is the trace-codec compression section.
	Codec CodecStatsView `json:"codec"`
	// Durability is the journaling and recovery section.
	Durability DurabilityView `json:"durability"`
	// Tenants breaks traffic down per tenant.
	Tenants map[string]TenantStats `json:"tenants"`
}

// DurabilityView is the /v1/stats durability section. The server keeps
// its journaling state in one (guarded by Server.mu) and fills in Mode
// when it reports.
type DurabilityView struct {
	// Mode is the current durability mode (see HealthView.Mode).
	Mode string `json:"mode"`
	// DegradedReason explains a degraded mode; it is set exactly when
	// the server has degraded.
	DegradedReason string `json:"degraded_reason,omitempty"`
	// JournalAppends / JournalAppendErrors count WAL record appends and
	// their failures (the first failure degrades the server).
	JournalAppends      uint64 `json:"journal_appends"`
	JournalAppendErrors uint64 `json:"journal_append_errors"`
	// ResultWrites / ResultWriteErrors count result-file persists.
	ResultWrites      uint64 `json:"result_writes"`
	ResultWriteErrors uint64 `json:"result_write_errors"`
	// Recovery reports what the startup replay found.
	Recovery RecoveryStats `json:"recovery"`
}

// streamRecord is one NDJSON line of GET /v1/jobs/{id}/stream.
type streamRecord struct {
	// Type discriminates the record: "status", "profile", or "end".
	Type string `json:"type"`
	// Status accompanies "status" records.
	Status Status `json:"status,omitempty"`
	// Technique and Profile accompany "profile" records.
	Technique string          `json:"technique,omitempty"`
	Profile   json.RawMessage `json:"profile,omitempty"`
	// Job accompanies the final "end" record (profiles omitted — they
	// were streamed individually).
	Job *JobView `json:"job,omitempty"`
}

// Handler returns the service's HTTP surface (the /v1 API documented
// in docs/API.md).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/profiles/{technique}", s.handleProfile)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("/", s.handleNotFound)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErrorKind(w, kindBodyTooLarge, "request body exceeds %d bytes", s.cfg.MaxBodyBytes)
			return
		}
		writeErrorKind(w, kindBadRequest, "invalid job request: %v", err)
		return
	}
	if dec.More() {
		writeErrorKind(w, kindBadRequest, "invalid job request: trailing data after JSON document")
		return
	}

	j, err := s.buildJob(&req)
	if err != nil {
		writeError(w, errorBody(err))
		return
	}

	if ok, retry := s.quotas.admit(j.tenant); !ok {
		s.mu.Lock()
		s.stats.rejectedQuota++
		s.tenantStatsLocked(j.tenant).RejectedQuota++
		s.mu.Unlock()
		setRetryAfter(w, retry)
		writeErrorKind(w, kindQuotaExceeded, "tenant %q over its job rate; retry after %v", j.tenant, retry)
		return
	}

	ok, depth := s.register(j)
	if !ok {
		retry := s.retryAfter()
		setRetryAfter(w, retry)
		writeErrorKind(w, kindQueueFull, "admission queue full (%d jobs); retry after %v", depth, retry)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: j.id, Status: StatusQueued, QueueDepth: depth})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErrorKind(w, kindNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErrorKind(w, kindNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !j.requestCancel() {
		writeErrorKind(w, kindConflict, "job %s is already %s", j.id, j.view(false).Status)
		return
	}
	s.journalAppend(j, recCancel, nil)
	writeJSON(w, http.StatusAccepted, j.view(false))
}

// handleProfile serves one technique's PICS document verbatim — the
// exact bytes pics.WriteJSON produced, untouched by any envelope
// encoder. This is the endpoint to diff against a local
// analysis.RunProgram artifact; the profiles embedded in the job view
// are JSON-equivalent but re-indented.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErrorKind(w, kindNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	name := r.PathValue("technique")
	v := j.view(false)
	if !v.Status.Terminal() {
		writeErrorKind(w, kindConflict, "job %s is %s; profiles exist once it is done", j.id, v.Status)
		return
	}
	doc, techErr, has := j.profileBytes(name)
	switch {
	case techErr != nil:
		writeError(w, techErr)
	case !has:
		writeErrorKind(w, kindNotFound, "job %s has no %q profile (techniques: %v)", j.id, name, v.Techniques)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(doc)
	}
}

// handleStream serves the job as NDJSON: a "status" record on connect
// and on every transition, one "profile" record per technique once the
// job completes, and a final "end" record. The stream honors client
// disconnect through the request context.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErrorKind(w, kindNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)

	var last Status
	for {
		ch := j.watch()
		v := j.view(true)
		if v.Status != last {
			last = v.Status
			if err := enc.Encode(streamRecord{Type: "status", Status: v.Status}); err != nil {
				return
			}
		}
		if v.Status.Terminal() {
			for _, name := range v.Techniques {
				doc, has := v.Profiles[name]
				if !has {
					continue
				}
				if err := enc.Encode(streamRecord{Type: "profile", Technique: name, Profile: doc}); err != nil {
					return
				}
			}
			v.Profiles = nil
			enc.Encode(streamRecord{Type: "end", Job: &v})
			return
		}
		if canFlush {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	store := analysis.TraceStore().Snapshot()
	memo := s.memo.Snapshot()
	codec := analysis.CodecTotalStats()
	view := StatsView{
		Workers:     s.cfg.Workers,
		QueueCap:    s.cfg.QueueDepth,
		Captures:    analysis.CaptureCount(),
		TraceStore:  StoreStatsView{Stats: store, HitRate: store.HitRate()},
		ProfileMemo: ProfileMemoView{Hits: memo.Hits, Misses: memo.Misses, Entries: memo.Entries, Bytes: memo.MemBytes},
		Codec: CodecStatsView{
			Captures:         codec.Streams,
			Records:          codec.Records,
			MatchedRecords:   codec.MatchedRecords,
			LogicalBytes:     codec.LogicalBytes,
			EncodedBytes:     codec.EncodedBytes,
			CompressionRatio: codec.CompressionRatio(),
			PatternHitRate:   codec.PatternHitRate(),
		},
	}
	mode := s.Mode()
	s.mu.Lock()
	view.Durability = s.dur
	view.Durability.Mode = mode
	view.QueueDepth = len(s.queue)
	view.Submitted = s.stats.submitted
	view.RejectedQuota = s.stats.rejectedQuota
	view.RejectedQueue = s.stats.rejectedQueue
	view.Jobs = make(map[string]uint64, len(s.stats.byStatus))
	for _, st := range xiter.SortedKeys(s.stats.byStatus) {
		view.Jobs[string(st)] = s.stats.byStatus[st]
	}
	view.Tenants = make(map[string]TenantStats, len(s.stats.tenants))
	for _, tenant := range xiter.SortedKeys(s.stats.tenants) {
		view.Tenants[tenant] = *s.stats.tenants[tenant]
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// HealthView is the GET /v1/healthz body — liveness: the process is up
// and answering; always 200. Mode tells an operator whether durability
// is active ("durable"), never configured ("memory-only"), or switched
// off by a runtime disk fault ("degraded"). Degraded is a liveness OK:
// the server still serves correct bytes from memory.
type HealthView struct {
	Status string `json:"status"`
	Mode   string `json:"mode"`
}

// ReadyView is the GET /v1/readyz body — readiness: whether this
// instance should receive new traffic. Not-ready (503) when the
// admission queue is saturated or durability has degraded; existing
// jobs and reads keep working either way.
type ReadyView struct {
	Ready      bool   `json:"ready"`
	Mode       string `json:"mode"`
	Reason     string `json:"reason,omitempty"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthView{Status: "ok", Mode: s.Mode()})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	v := ReadyView{Ready: true, Mode: s.Mode(), QueueDepth: len(s.queue), QueueCap: s.cfg.QueueDepth}
	switch {
	case v.Mode == ModeDegraded:
		v.Ready = false
		v.Reason = "durability degraded to memory-only after a disk fault"
	case v.QueueDepth >= v.QueueCap:
		v.Ready = false
		v.Reason = "admission queue saturated"
	}
	status := http.StatusOK
	if !v.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, v)
}

// handleNotFound keeps unknown paths inside the JSON error contract
// (the mux's default would answer text/plain).
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeErrorKind(w, kindNotFound, "unknown path %s", r.URL.Path)
}

// writeJSON writes one JSON response. An encode failure after the
// header is unrecoverable mid-stream; the client sees a truncated body
// and its decoder reports it.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError renders a prebuilt error body at its mapped status.
func writeError(w http.ResponseWriter, body *ErrorBody) {
	writeJSON(w, body.Status, errEnvelope{Error: body})
}

// writeErrorKind renders a service-kind error.
func writeErrorKind(w http.ResponseWriter, kind, format string, args ...any) {
	body := &ErrorBody{Kind: kind, Status: statusForKind(kind), Message: fmt.Sprintf(format, args...)}
	writeError(w, body)
}

// setRetryAfter sets the Retry-After header in whole seconds, rounded
// up so a client honoring it never retries early.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}
