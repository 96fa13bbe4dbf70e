// Package journal is the durability layer under the profiling service:
// an fsync'd, append-only, checksummed write-ahead log of job state
// transitions plus a directory of content-verified result files. The
// service (internal/serve) appends one record per lifecycle transition
// — submitted, running, cancel-requested, done/failed/canceled — and
// on startup replays the log to restore terminal jobs (result bytes
// verified against their journaled SHA-256, so recovered profiles are
// byte-identical to what the pre-crash server served) and to re-enqueue
// jobs a crash interrupted.
//
// The WAL borrows the framing discipline of the trace codec: a
// magic+version header, then length-prefixed records each sealed by an
// FNV-1a digest. Recovery distinguishes the two ways a log can be
// damaged:
//
//   - A torn tail — the file ends inside a record, the signature of a
//     crash mid-append. The tail is truncated (and reported), because
//     an append that never completed is an event that never happened;
//     the job it described is still covered by its earlier records.
//   - Mid-stream corruption — a record's bytes are all present but its
//     digest does not match (bit rot, a corrupted sector). That is not
//     a crash artifact; replay fails with a typed *simerr.Error
//     (simerr.ErrDecode) so the operator decides, rather than the
//     service silently dropping history.
//
// All I/O goes through the FS interface (fs.go) so the chaos harness
// can inject torn writes, bit flips, ENOSPC, and EIO underneath the
// real code paths.
package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/simerr"
)

// WAL framing constants.
const (
	// Magic opens the WAL file ("TEA J"ournal).
	Magic = "TEAJ"
	// FormatVersion is bumped on any framing or record-schema change;
	// a mismatched version fails replay typed rather than guessing.
	FormatVersion = 1
	// walName is the WAL file inside the journal directory.
	walName = "wal.teaj"
	// resultsDir holds the per-(job, technique) result files.
	resultsDir = "results"
)

// FNV-1a, the same digest family the trace codec uses.
const (
	digestOffset uint64 = 14695981039346656037
	digestPrime  uint64 = 1099511628211
)

func digest(b []byte) uint64 {
	h := digestOffset
	for _, c := range b {
		h = (h ^ uint64(c)) * digestPrime
	}
	return h
}

// Record is one journaled event. The journal is deliberately ignorant
// of job semantics: Type and Data are the service layer's contract
// (internal/serve defines the types it writes and how replay folds
// them); the journal guarantees only ordering, durability, and
// integrity.
type Record struct {
	// Type discriminates the event ("submitted", "running", ...).
	Type string `json:"type"`
	// JobID is the job the event belongs to.
	JobID string `json:"job"`
	// TimeUnixMs timestamps the event (informational; replay does not
	// depend on it).
	TimeUnixMs int64 `json:"t_ms,omitempty"`
	// Data is the type-specific payload, owned by the writer.
	Data json.RawMessage `json:"data,omitempty"`
}

// ResultRef points a journal record at a result file: the file's base
// name under results/, its size, and the SHA-256 of its contents. A
// recovered result is served only if all three match — a missing or
// silently rewritten file surfaces as a typed failure, never as wrong
// bytes.
type ResultRef struct {
	File   string `json:"file"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// Recovery reports what replay found.
type Recovery struct {
	// Records are the intact records in append order.
	Records []Record
	// TornBytes is the size of the truncated torn tail (0 when the log
	// ended cleanly).
	TornBytes int64
	// TornOffset is the file offset the log was truncated to when
	// TornBytes > 0.
	TornOffset int64
}

// Journal is an open write-ahead log. Append is safe for concurrent
// use; one Journal owns its directory.
type Journal struct {
	dir string
	fs  FS

	mu   sync.Mutex
	file File
}

// Open prepares dir (created if absent), replays the existing WAL, and
// returns the journal ready for appends plus the recovery report. A
// torn tail is truncated and reported in the Recovery; mid-stream
// corruption, an alien file, or an unsupported version fail with a
// typed *simerr.Error and no Journal.
func Open(dir string, fs FS) (*Journal, *Recovery, error) {
	if fs == nil {
		fs = OSFS{}
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, err
	}
	if err := fs.MkdirAll(filepath.Join(dir, resultsDir)); err != nil {
		return nil, nil, err
	}
	walPath := filepath.Join(dir, walName)

	rec := &Recovery{}
	intact := int64(0) // bytes of WAL proven good; < header size means the header must be (re)written
	exists, err := fs.Stat(walPath)
	if err != nil {
		return nil, nil, err
	}
	if exists {
		data, err := fs.ReadFile(walPath)
		if err != nil {
			return nil, nil, err
		}
		keep, err := replay(data, rec)
		if err != nil {
			return nil, nil, err
		}
		intact = keep
		if keep < int64(len(data)) {
			rec.TornBytes = int64(len(data)) - keep
			rec.TornOffset = keep
			if err := fs.Truncate(walPath, keep); err != nil {
				return nil, nil, err
			}
		}
	}

	f, err := fs.OpenAppend(walPath)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{dir: dir, fs: fs, file: f}
	if intact < int64(len(Magic)+1) {
		hdr := append([]byte(Magic), FormatVersion)
		if _, err := j.file.Write(hdr); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := j.file.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return j, rec, nil
}

// replay scans the WAL bytes, appending intact records to rec and
// returning the byte offset up to which the log is intact. A file that
// ends mid-header or mid-record returns the torn offset; corruption
// with all bytes present returns a typed error.
func replay(data []byte, rec *Recovery) (keep int64, err error) {
	hdr := len(Magic) + 1
	if len(data) < hdr {
		// A crash during journal creation: the header itself is torn.
		// Only a strict prefix of the header is a torn artifact; any
		// other bytes mean this is not our file.
		if len(data) == 0 || strings.HasPrefix(Magic, string(data[:min(len(data), len(Magic))])) {
			return 0, nil
		}
		return 0, simerr.New(simerr.ErrDecode, simerr.Snapshot{},
			"journal: %d-byte file is not a TEA journal", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return 0, simerr.New(simerr.ErrDecode, simerr.Snapshot{}, "journal: bad magic")
	}
	if data[len(Magic)] != FormatVersion {
		return 0, simerr.New(simerr.ErrDecode, simerr.Snapshot{},
			"journal: unsupported version %d (want %d)", data[len(Magic)], FormatVersion)
	}

	pos := hdr
	for pos < len(data) {
		n, w := binary.Uvarint(data[pos:])
		if w == 0 {
			return int64(pos), nil // varint ran off the end: torn tail
		}
		if w < 0 {
			return 0, simerr.New(simerr.ErrDecode, simerr.Snapshot{},
				"journal: overlong record length at offset %d", pos)
		}
		body := pos + w
		if n > uint64(len(data)-body) || uint64(len(data)-body)-n < 8 {
			return int64(pos), nil // payload or digest missing: torn tail
		}
		payload := data[body : body+int(n)]
		sum := binary.LittleEndian.Uint64(data[body+int(n):])
		if sum != digest(payload) {
			return 0, simerr.New(simerr.ErrDecode, simerr.Snapshot{},
				"journal: record digest mismatch at offset %d — mid-stream corruption, not a torn tail", pos)
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return 0, simerr.Wrap(simerr.ErrDecode, simerr.Snapshot{}, err,
				"journal: record at offset %d fails to parse", pos)
		}
		rec.Records = append(rec.Records, r)
		pos = body + int(n) + 8
	}
	return int64(pos), nil
}

// Append journals one record durably: frame, single write, fsync. On
// error the caller must assume the record did not commit (a torn tail
// from a failed append is repaired by the next Open); the journal
// remains open — whether to keep trying or degrade is the caller's
// policy.
func (j *Journal) Append(r Record) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return simerr.Wrap(simerr.ErrInternal, simerr.Snapshot{}, err,
			"journal: encoding %s record for job %s", r.Type, r.JobID)
	}
	frame := make([]byte, 0, binary.MaxVarintLen64+len(payload)+8)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], digest(payload))
	frame = append(frame, sum[:]...)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.file == nil {
		return simerr.New(simerr.ErrIO, simerr.Snapshot{}, "journal: closed")
	}
	if _, err := j.file.Write(frame); err != nil {
		return err
	}
	return j.file.Sync()
}

// WriteResult persists one result payload (e.g. a technique's profile
// bytes) atomically: temp file, fsync, rename. The returned ResultRef
// is what the caller journals; ReadResult later verifies against it.
func (j *Journal) WriteResult(jobID, name string, data []byte) (ResultRef, error) {
	base := sanitize(jobID) + "-" + sanitize(name) + ".bin"
	final := filepath.Join(j.dir, resultsDir, base)
	tmp := final + ".tmp"
	if err := j.fs.WriteFile(tmp, data); err != nil {
		return ResultRef{}, err
	}
	if err := j.fs.Rename(tmp, final); err != nil {
		// Best-effort cleanup; the rename failure is the real error.
		j.fs.Remove(tmp)
		return ResultRef{}, err
	}
	sum := sha256.Sum256(data)
	return ResultRef{File: base, Bytes: int64(len(data)), SHA256: hex.EncodeToString(sum[:])}, nil
}

// ReadResult loads and verifies a journaled result. A read failure is
// ErrIO; a size or digest mismatch — including a ref whose File tries
// to escape the results directory — is ErrDecode. Either way the
// caller gets a typed error, never unverified bytes.
func (j *Journal) ReadResult(ref ResultRef) ([]byte, error) {
	if ref.File == "" || ref.File != filepath.Base(ref.File) {
		return nil, simerr.New(simerr.ErrDecode, simerr.Snapshot{},
			"journal: result ref %q is not a plain file name", ref.File)
	}
	data, err := j.fs.ReadFile(filepath.Join(j.dir, resultsDir, ref.File))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != ref.Bytes {
		return nil, simerr.New(simerr.ErrDecode, simerr.Snapshot{Detail: ref.File},
			"journal: result %s is %d bytes, journal says %d", ref.File, len(data), ref.Bytes)
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != ref.SHA256 {
		return nil, simerr.New(simerr.ErrDecode, simerr.Snapshot{Detail: ref.File},
			"journal: result %s fails its SHA-256 check", ref.File)
	}
	return data, nil
}

// Dir returns the journal's root directory.
func (j *Journal) Dir() string { return j.dir }

// Close releases the WAL append handle. Further Appends fail typed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.file == nil {
		return nil
	}
	err := j.file.Close()
	j.file = nil
	return err
}

// WALPath returns the WAL file location under dir — shared with the
// crash-recovery smoke and the -recover=false rotation in cmd/teaserve.
func WALPath(dir string) string { return filepath.Join(dir, walName) }

// sanitize keeps journal-derived file names to a safe alphabet; job
// IDs and technique names are server-generated, so this is a backstop,
// not an escape hatch.
func sanitize(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}
