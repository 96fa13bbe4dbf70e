package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
)

// journalStats is the journal layer's work as its filesystem saw it.
type journalStats struct {
	resultWrite time.Duration // result files: write, fsync, rename
	walSync     time.Duration // WAL appends and their fsyncs
	fsyncs      int
	bytes       int64
}

func (r *report) setJournal(st journalStats, jobs int) {
	n := float64(max(jobs, 1))
	r.set("journal.result_write_ms_per_job", ms(st.resultWrite)/n, "ms")
	r.set("journal.wal_sync_ms_per_job", ms(st.walSync)/n, "ms")
	r.set("journal.fsyncs_per_job", float64(st.fsyncs)/n, "count")
	r.set("journal.bytes_per_job", float64(st.bytes)/n, "bytes")
}

// timingFS is the journal's real filesystem with every result write,
// WAL append and fsync timed while on is set. Result file names and WAL
// records carry the job ID, which ties each call to its job's span.
type timingFS struct {
	journal.OSFS
	tr *tracer
	on atomic.Bool

	mu   sync.Mutex
	jobs map[string]*journalStats // by job ID
}

func newTimingFS(tr *tracer) *timingFS {
	return &timingFS{tr: tr, jobs: map[string]*journalStats{}}
}

// stats sums the journal work of the given jobs. Summing by job, not
// over a time window, keeps out the journaling that earlier jobs finish
// after the window opens.
func (f *timingFS) stats(results []jobResult) journalStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	var sum journalStats
	for _, r := range results {
		if st := f.jobs[r.id]; st != nil {
			sum.resultWrite += st.resultWrite
			sum.walSync += st.walSync
			sum.fsyncs += st.fsyncs
			sum.bytes += st.bytes
		}
	}
	return sum
}

// note accounts one timed call of job that began at start.
func (f *timingFS) note(job, op, name string, start time.Time, add func(*journalStats, time.Duration)) {
	if !f.on.Load() {
		return
	}
	end := time.Now()
	f.mu.Lock()
	st := f.jobs[job]
	if st == nil {
		st = &journalStats{}
		f.jobs[job] = st
	}
	add(st, end.Sub(start))
	f.mu.Unlock()
	f.tr.addJob(job, op, name, start, end)
}

// WriteFile implements journal.FS.
func (f *timingFS) WriteFile(name string, data []byte) error {
	start := time.Now()
	err := f.OSFS.WriteFile(name, data)
	f.note(jobOfFile(name), "journal.WriteFile", name, start, func(st *journalStats, d time.Duration) {
		st.resultWrite += d
		st.fsyncs++
		st.bytes += int64(len(data))
	})
	return err
}

// Rename implements journal.FS.
func (f *timingFS) Rename(oldname, newname string) error {
	start := time.Now()
	err := f.OSFS.Rename(oldname, newname)
	f.note(jobOfFile(newname), "journal.Rename", newname, start, func(st *journalStats, d time.Duration) {
		st.resultWrite += d
	})
	return err
}

// OpenAppend implements journal.FS.
func (f *timingFS) OpenAppend(name string) (journal.File, error) {
	file, err := f.OSFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f, name: name}, nil
}

// timingFile is the WAL's append handle. The journal writes one record
// and syncs it under its own lock, so the sync belongs to the job of
// the record written just before.
type timingFile struct {
	journal.File
	fs   *timingFS
	name string
	job  string
}

func (t *timingFile) Write(p []byte) (int, error) {
	t.job = jobOfRecord(p)
	start := time.Now()
	n, err := t.File.Write(p)
	t.fs.note(t.job, "journal.Append", t.name, start, func(st *journalStats, d time.Duration) {
		st.walSync += d
		st.bytes += int64(n)
	})
	return n, err
}

func (t *timingFile) Sync() error {
	start := time.Now()
	err := t.File.Sync()
	t.fs.note(t.job, "journal.Sync", t.name, start, func(st *journalStats, d time.Duration) {
		st.walSync += d
		st.fsyncs++
	})
	return err
}

// jobOfFile returns the job ID a result file name starts with
// ("j-000042-tea.bin.tmp" -> "j-000042").
func jobOfFile(path string) string {
	base := filepath.Base(path)
	if !strings.HasPrefix(base, "j-") {
		return ""
	}
	end := 2
	for end < len(base) && base[end] >= '0' && base[end] <= '9' {
		end++
	}
	return base[:end]
}

// jobOfRecord returns the job ID inside one framed WAL record.
func jobOfRecord(frame []byte) string {
	key := []byte(`"job":"`)
	i := bytes.Index(frame, key)
	if i < 0 {
		return ""
	}
	rest := frame[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}
