// Disk-fault injection under the durability layer. Where
// faultinject.go corrupts trace bytes, this file stands a failing
// filesystem underneath the job journal (journal.FS is the seam) and
// asserts the service-level robustness contract:
//
//	under any disk fault — torn final record, mid-stream bit flip,
//	ENOSPC, EIO, slow I/O — the server never panics and never serves
//	wrong bytes: torn tails are truncated on recovery, corruption
//	fails typed, and runtime write failures degrade the server to
//	memory-only mode while jobs keep completing correctly.
package faultinject

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/journal"
	"repro/internal/serve"
	"repro/internal/simerr"
	"repro/internal/workloads"
)

// FaultFS wraps a journal.FS with injectable failures. The zero knobs
// pass everything through; each knob arms one fault. All injected
// errors are typed simerr.ErrIO, like the production OSFS would
// produce for the real fault.
type FaultFS struct {
	inner journal.FS

	mu         sync.Mutex
	writes     int           // write operations seen (WriteFile + File.Write)
	failAfter  int           // fail writes once writes >= failAfter (0 = never)
	failCause  error         // the simulated errno (ENOSPC, EIO)
	tearAt     int           // the tearAt-th write lands half its bytes, then errors (0 = never)
	slow       time.Duration // sleep before every operation
	flipFile   string        // ReadFile of a name containing this flips a bit
	flipOffset int
}

// NewFaultFS wraps inner (nil = the real filesystem).
func NewFaultFS(inner journal.FS) *FaultFS {
	if inner == nil {
		inner = journal.OSFS{}
	}
	return &FaultFS{inner: inner}
}

// FailWritesAfter arms a persistent write failure: the n-th and every
// later write operation fails with cause (e.g. syscall.ENOSPC). Reads
// keep working — a full disk still serves existing results.
func (f *FaultFS) FailWritesAfter(n int, cause error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAfter = n
	f.failCause = cause
}

// TearWriteAt arms a torn write: the n-th write operation persists
// only the first half of its bytes and then fails — the on-disk
// signature of a crash mid-append.
func (f *FaultFS) TearWriteAt(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tearAt = n
}

// SlowIO makes every filesystem operation sleep for d first.
func (f *FaultFS) SlowIO(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.slow = d
}

// FlipBitOnRead arms a read-side bit flip: ReadFile of any name
// containing substr flips one bit at offset (clamped to the file).
func (f *FaultFS) FlipBitOnRead(substr string, offset int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flipFile = substr
	f.flipOffset = offset
}

// Writes reports the write operations observed so far.
func (f *FaultFS) Writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

func (f *FaultFS) pause() {
	f.mu.Lock()
	d := f.slow
	f.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

// checkWrite charges one write operation and returns the armed fault
// disposition: inject != nil fails the write outright; tear reports
// that this write should land half its bytes first.
func (f *FaultFS) checkWrite(name string) (inject error, tear bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	if f.failAfter > 0 && f.writes >= f.failAfter {
		return simerr.Wrap(simerr.ErrIO, simerr.Snapshot{Detail: name}, f.failCause,
			"injected write fault on %s", name), false
	}
	if f.tearAt > 0 && f.writes == f.tearAt {
		return nil, true
	}
	return nil, false
}

// MkdirAll implements journal.FS.
func (f *FaultFS) MkdirAll(dir string) error { f.pause(); return f.inner.MkdirAll(dir) }

// ReadFile implements journal.FS, applying the armed read-side flip.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	f.pause()
	data, err := f.inner.ReadFile(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	substr, off := f.flipFile, f.flipOffset
	f.mu.Unlock()
	if substr != "" && strings.Contains(name, substr) && len(data) > 0 {
		if off >= len(data) {
			off = len(data) - 1
		}
		data = append([]byte(nil), data...)
		data[off] ^= 0x20
	}
	return data, nil
}

// WriteFile implements journal.FS.
func (f *FaultFS) WriteFile(name string, data []byte) error {
	f.pause()
	inject, tear := f.checkWrite(name)
	if inject != nil {
		return inject
	}
	if tear {
		f.inner.WriteFile(name, data[:len(data)/2])
		return simerr.New(simerr.ErrIO, simerr.Snapshot{Detail: name},
			"injected torn write on %s", name)
	}
	return f.inner.WriteFile(name, data)
}

// Rename implements journal.FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	f.pause()
	return f.inner.Rename(oldname, newname)
}

// Remove implements journal.FS.
func (f *FaultFS) Remove(name string) error { f.pause(); return f.inner.Remove(name) }

// Truncate implements journal.FS.
func (f *FaultFS) Truncate(name string, size int64) error {
	f.pause()
	return f.inner.Truncate(name, size)
}

// Stat implements journal.FS.
func (f *FaultFS) Stat(name string) (bool, error) { f.pause(); return f.inner.Stat(name) }

// OpenAppend implements journal.FS; the handle's writes share the
// FaultFS write counter and faults.
func (f *FaultFS) OpenAppend(name string) (journal.File, error) {
	f.pause()
	inner, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: inner}, nil
}

type faultFile struct {
	fs    *FaultFS
	name  string
	inner journal.File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.pause()
	inject, tear := ff.fs.checkWrite(ff.name)
	if inject != nil {
		return 0, inject
	}
	if tear {
		n, _ := ff.inner.Write(p[:len(p)/2])
		ff.inner.Sync()
		return n, simerr.New(simerr.ErrIO, simerr.Snapshot{Detail: ff.name},
			"injected torn append on %s", ff.name)
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error  { ff.fs.pause(); return ff.inner.Sync() }
func (ff *faultFile) Close() error { return ff.inner.Close() }

// diskJob is the job every disk scenario submits: small enough to run
// in milliseconds, real enough to produce a full TEA profile.
const diskJob = `{"workload":"mcf","config":{"scale":0.05},"techniques":["tea"]}`

// diskBaseline computes the profile bytes an uninterrupted local run
// produces for diskJob — the byte-identity reference.
//
//tealint:ctxroot chaos-harness baseline run; no outer context exists to thread
func diskBaseline() ([]byte, error) {
	w, err := workloads.ByName("mcf")
	if err != nil {
		return nil, err
	}
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.05
	p := w.Build(rc.Iters(w))
	br, err := analysis.RunProgramContext(context.Background(), w, p, rc)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := br.TEA.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// serveHarness drives an in-process journaled server through its HTTP
// handler — the same surface the smoke tests and real clients use.
type serveHarness struct {
	srv     *serve.Server
	handler http.Handler
	cancel  context.CancelFunc
	done    chan struct{}
}

// startHarness builds and runs a server; any construction error is
// returned for the scenario to classify.
//
//tealint:ctxroot chaos-harness worker pool root; the harness owns the pool lifetime
func startHarness(dir string, fs journal.FS) (*serveHarness, error) {
	s, err := serve.New(serve.Config{
		Workers:    2,
		JournalDir: dir,
		JournalFS:  fs,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &serveHarness{srv: s, handler: s.Handler(), cancel: cancel, done: make(chan struct{})}
	go func() { s.Run(ctx); close(h.done) }()
	select {
	case <-h.done:
		// The pool exited before the harness was even handed out — the
		// scenario would hang on a dead server, so fail fast instead.
		return nil, fmt.Errorf("worker pool exited at startup")
	default:
	}
	return h, nil
}

// stop tears the worker pool down; abandon (no journal close) mimics a
// crash, close mimics a clean shutdown.
func (h *serveHarness) stop(closeJournal bool) {
	h.cancel()
	<-h.done
	if closeJournal {
		h.srv.Close()
	}
}

func (h *serveHarness) do(method, path, body string) (int, []byte) {
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rec := httptest.NewRecorder()
	h.handler.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// submitAndAwait submits diskJob and polls until the job is terminal,
// returning (jobID, status). An empty status means submission failed
// or the job never finished inside timeout.
func (h *serveHarness) submitAndAwait(timeout time.Duration) (id, status string, err error) {
	code, body := h.do(http.MethodPost, "/v1/jobs", diskJob)
	if code != http.StatusAccepted {
		return "", "", fmt.Errorf("submit answered %d: %s", code, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		return "", "", fmt.Errorf("undecodable submit response %q", body)
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		code, body := h.do(http.MethodGet, "/v1/jobs/"+sub.ID, "")
		if code != http.StatusOK {
			return sub.ID, "", fmt.Errorf("poll answered %d: %s", code, body)
		}
		var v struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return sub.ID, "", fmt.Errorf("undecodable job view %q", body)
		}
		switch v.Status {
		case "done", "failed", "canceled":
			return sub.ID, v.Status, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return sub.ID, "", fmt.Errorf("job %s not terminal after %v (hang)", sub.ID, timeout)
}

// profileBytes fetches the raw TEA profile document for id.
func (h *serveHarness) profileBytes(id string) ([]byte, error) {
	code, body := h.do(http.MethodGet, "/v1/jobs/"+id+"/profiles/tea", "")
	if code != http.StatusOK {
		return nil, fmt.Errorf("profile answered %d: %s", code, body)
	}
	return body, nil
}

// runDiskScenario executes one scenario with panic containment.
func runDiskScenario(name string, fn func() (bool, string), rep *Report) {
	ok, detail := func() (ok bool, detail string) {
		defer func() {
			if v := recover(); v != nil {
				ok, detail = false, fmt.Sprintf("VIOLATION: panic escaped the durability layer: %v", v)
			}
		}()
		return fn()
	}()
	rep.add("disk:"+name, ok, detail)
}

// DiskSweep runs the disk-fault chaos suite: a fault-free
// crash-recovery control, torn-tail repair, mid-stream corruption,
// ENOSPC and EIO at runtime (degraded-mode contract), and slow I/O.
// Scenario directories live under tmpRoot (one subdirectory each).
func DiskSweep(tmpRoot string) (*Report, error) {
	rep := &Report{Workload: "mcf", Seed: 0}
	baseline, err := diskBaseline()
	if err != nil {
		return nil, fmt.Errorf("faultinject: disk baseline run: %w", err)
	}
	dir := func(name string) string { return tmpRoot + "/" + name }

	// Control: run a job to completion on a journaled server, crash
	// (no clean close), restart on the same journal, and require the
	// restored profile bytes to be identical — the PR's headline
	// property, in-process.
	runDiskScenario("crash-recovery-control", func() (bool, string) {
		h, err := startHarness(dir("control"), nil)
		if err != nil {
			return false, fmt.Sprintf("VIOLATION: journaled server failed to start: %v", err)
		}
		id, status, err := h.submitAndAwait(60 * time.Second)
		if err != nil || status != "done" {
			h.stop(true)
			return false, fmt.Sprintf("VIOLATION: pre-crash job: status %q, err %v", status, err)
		}
		pre, err := h.profileBytes(id)
		if err != nil {
			h.stop(true)
			return false, "VIOLATION: " + err.Error()
		}
		if !bytes.Equal(pre, baseline) {
			h.stop(true)
			return false, "VIOLATION: served profile differs from local run before any fault"
		}
		h.stop(false) // crash: journal never closed

		h2, err := startHarness(dir("control"), nil)
		if err != nil {
			return false, fmt.Sprintf("VIOLATION: restart after crash failed: %v", err)
		}
		defer h2.stop(true)
		post, err := h2.profileBytes(id)
		if err != nil {
			return false, "VIOLATION: recovered job unreadable: " + err.Error()
		}
		if !bytes.Equal(pre, post) {
			return false, "VIOLATION: recovered profile bytes differ from pre-crash bytes"
		}
		return true, "recovered byte-identical"
	}, rep)

	// Torn tail: append half a record to a valid WAL (crash mid-append)
	// and require recovery to truncate and carry on.
	runDiskScenario("torn-tail", func() (bool, string) {
		d := dir("torn")
		j, _, err := journal.Open(d, nil)
		if err != nil {
			return false, fmt.Sprintf("VIOLATION: open: %v", err)
		}
		if err := j.Append(journal.Record{Type: "submitted", JobID: "j-000001"}); err != nil {
			return false, fmt.Sprintf("VIOLATION: append: %v", err)
		}
		j.Close()
		wal := journal.WALPath(d)
		data, err := os.ReadFile(wal)
		if err != nil {
			return false, fmt.Sprintf("VIOLATION: read wal: %v", err)
		}
		// A torn copy of the last record: half of it re-appended.
		torn := append(data, data[len(data)/2:len(data)/2+4]...)
		if err := os.WriteFile(wal, torn, 0o644); err != nil {
			return false, fmt.Sprintf("VIOLATION: write torn wal: %v", err)
		}
		j2, rec, err := journal.Open(d, nil)
		if err != nil {
			return false, fmt.Sprintf("VIOLATION: torn tail failed recovery instead of truncating: %v", err)
		}
		defer j2.Close()
		if rec.TornBytes == 0 || len(rec.Records) != 1 {
			return false, fmt.Sprintf("VIOLATION: torn tail not repaired: %d records, %d torn bytes", len(rec.Records), rec.TornBytes)
		}
		return true, fmt.Sprintf("truncated %d torn bytes, kept %d records", rec.TornBytes, len(rec.Records))
	}, rep)

	// Mid-stream bit flip: all bytes present, digest wrong. Recovery
	// must fail typed — never truncate history, never return garbage.
	runDiskScenario("mid-stream-bit-flip", func() (bool, string) {
		d := dir("bitflip")
		j, _, err := journal.Open(d, nil)
		if err != nil {
			return false, fmt.Sprintf("VIOLATION: open: %v", err)
		}
		j.Append(journal.Record{Type: "submitted", JobID: "j-000001"})
		j.Append(journal.Record{Type: "done", JobID: "j-000001"})
		j.Close()

		ffs := NewFaultFS(nil)
		ffs.FlipBitOnRead("wal.teaj", 12)
		_, _, err = journal.Open(d, ffs)
		if err == nil {
			return false, "VIOLATION: bit-flipped WAL replayed cleanly"
		}
		if !errors.Is(err, simerr.ErrDecode) {
			return false, fmt.Sprintf("VIOLATION: untyped corruption error: %v", err)
		}
		return true, "typed error: " + simerr.ErrDecode.Error()
	}, rep)

	// ENOSPC / EIO at runtime: the first write after startup fails and
	// keeps failing. The server must degrade to memory-only — jobs keep
	// completing with correct bytes, never a crash.
	for _, tc := range []struct {
		name  string
		errno error
	}{
		{"enospc-runtime", syscall.ENOSPC},
		{"eio-runtime", syscall.EIO},
	} {
		runDiskScenario(tc.name, func() (bool, string) {
			ffs := NewFaultFS(nil)
			h, err := startHarness(dir(tc.name), ffs)
			if err != nil {
				return false, fmt.Sprintf("VIOLATION: start: %v", err)
			}
			defer h.stop(true)
			// Arm after startup so Open succeeds and the first job's
			// journal append is what hits the fault.
			ffs.FailWritesAfter(ffs.Writes()+1, tc.errno)
			id, status, err := h.submitAndAwait(60 * time.Second)
			if err != nil || status != "done" {
				return false, fmt.Sprintf("VIOLATION: job under %s: status %q, err %v", tc.name, status, err)
			}
			got, err := h.profileBytes(id)
			if err != nil {
				return false, "VIOLATION: " + err.Error()
			}
			if !bytes.Equal(got, baseline) {
				return false, "VIOLATION: served bytes differ from local run under disk fault"
			}
			if mode := h.srv.Mode(); mode != serve.ModeDegraded {
				return false, fmt.Sprintf("VIOLATION: mode %q after persistent write failure; want %q", mode, serve.ModeDegraded)
			}
			code, body := h.do(http.MethodGet, "/v1/readyz", "")
			if code != http.StatusServiceUnavailable {
				return false, fmt.Sprintf("VIOLATION: degraded server still ready: %d %s", code, body)
			}
			code, _ = h.do(http.MethodGet, "/v1/healthz", "")
			if code != http.StatusOK {
				return false, fmt.Sprintf("VIOLATION: liveness failed on degraded server: %d", code)
			}
			return true, "degraded to memory-only; bytes correct"
		}, rep)
	}

	// Torn append mid-run, then restart: the journal self-repairs and
	// the server comes back.
	runDiskScenario("torn-append-restart", func() (bool, string) {
		ffs := NewFaultFS(nil)
		h, err := startHarness(dir("tornappend"), ffs)
		if err != nil {
			return false, fmt.Sprintf("VIOLATION: start: %v", err)
		}
		ffs.TearWriteAt(ffs.Writes() + 2) // tear the second job record (the "running" append)
		id, status, err := h.submitAndAwait(60 * time.Second)
		if err != nil || status != "done" {
			h.stop(true)
			return false, fmt.Sprintf("VIOLATION: job under torn append: status %q, err %v", status, err)
		}
		if mode := h.srv.Mode(); mode != serve.ModeDegraded {
			h.stop(true)
			return false, fmt.Sprintf("VIOLATION: mode %q after torn append; want %q", mode, serve.ModeDegraded)
		}
		h.stop(false) // crash with the torn record on disk

		h2, err := startHarness(dir("tornappend"), nil)
		if err != nil {
			return false, fmt.Sprintf("VIOLATION: restart on torn WAL failed: %v", err)
		}
		defer h2.stop(true)
		// The job's submitted record survived; the torn tail was cut.
		// The job replays as interrupted and re-runs to done.
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			code, body := h2.do(http.MethodGet, "/v1/jobs/"+id, "")
			if code != http.StatusOK {
				return false, fmt.Sprintf("VIOLATION: recovered job lookup: %d %s", code, body)
			}
			var v struct {
				Status string `json:"status"`
			}
			json.Unmarshal(body, &v)
			if v.Status == "done" {
				got, err := h2.profileBytes(id)
				if err != nil {
					return false, "VIOLATION: " + err.Error()
				}
				if !bytes.Equal(got, baseline) {
					return false, "VIOLATION: re-run after torn append differs from local run"
				}
				return true, "torn tail repaired; interrupted job completed byte-identical"
			}
			if v.Status == "failed" || v.Status == "canceled" {
				return false, fmt.Sprintf("VIOLATION: recovered job ended %q", v.Status)
			}
			time.Sleep(10 * time.Millisecond)
		}
		return false, "VIOLATION: recovered job never completed (hang)"
	}, rep)

	// Slow I/O: everything still completes, nothing degrades.
	runDiskScenario("slow-io", func() (bool, string) {
		ffs := NewFaultFS(nil)
		ffs.SlowIO(2 * time.Millisecond)
		h, err := startHarness(dir("slow"), ffs)
		if err != nil {
			return false, fmt.Sprintf("VIOLATION: start: %v", err)
		}
		defer h.stop(true)
		id, status, err := h.submitAndAwait(120 * time.Second)
		if err != nil || status != "done" {
			return false, fmt.Sprintf("VIOLATION: job under slow I/O: status %q, err %v", status, err)
		}
		got, err := h.profileBytes(id)
		if err != nil {
			return false, "VIOLATION: " + err.Error()
		}
		if !bytes.Equal(got, baseline) {
			return false, "VIOLATION: served bytes differ under slow I/O"
		}
		if mode := h.srv.Mode(); mode != serve.ModeDurable {
			return false, fmt.Sprintf("VIOLATION: slow I/O degraded the server (mode %q)", mode)
		}
		return true, "completed durable under slow I/O"
	}, rep)

	return rep, nil
}
