// Package tracestore is a content-addressed cache for captured trace
// streams — the suite-level half of the paper's "capture once, analyze
// many times" methodology (Section 4). A capture is keyed by a digest
// of everything that determines its bytes: the program's full contents,
// the run configuration, and the trace format version. Two tiers back
// the store: a bounded in-memory LRU for hits within one process, and
// an optional on-disk tier so repeated teaexp or teaserve invocations
// skip simulation entirely.
//
// The store is deliberately ignorant of what an entry means: it caches
// opaque byte payloads under 32-byte keys. internal/analysis derives
// the keys (see its cachekey-checked digest function) and wraps trace
// streams in a stats envelope; the Validate hook lets it verify a
// disk-loaded payload end to end (envelope parse + trace integrity
// digest) before the entry is served. A payload that fails validation
// is deleted and reported as a miss — the caller recaptures; no decode
// error ever escapes the cache.
package tracestore

import (
	"container/list"
	"encoding/hex"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/simerr"
)

// Key is a content-address: a SHA-256 digest over the capture's
// identity (see Hasher).
type Key [32]byte

// String renders the key as lowercase hex (also the disk filename
// stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Disk-tier framing: each entry file is magic, a format byte, the key
// it claims to hold, then the payload. The key inside the file guards
// against renamed or cross-copied files serving the wrong capture.
var diskMagic = [4]byte{'T', 'E', 'A', 'C'}

const diskVersion = 1

// Stats counts store traffic since construction (monotonic, retrieved
// via Snapshot). The JSON names are the keys of the tracestore section
// of teaserve's /v1/stats (docs/API.md).
type Stats struct {
	// Hits counts Get/GetOrPut calls served from the memory tier.
	Hits uint64 `json:"hits"`
	// DiskHits counts calls served from the disk tier (the entry is
	// promoted to memory).
	DiskHits uint64 `json:"disk_hits"`
	// Misses counts calls no tier could serve.
	Misses uint64 `json:"misses"`
	// Puts counts entries inserted.
	Puts uint64 `json:"puts"`
	// Evictions counts memory-tier entries dropped by the LRU budget.
	Evictions uint64 `json:"evictions"`
	// DiskRejects counts disk entries discarded as corrupt, truncated,
	// or mislabeled (each also counts as a miss). It is always the sum
	// of the framing/payload splits below.
	DiskRejects uint64 `json:"disk_rejects"`
	// DiskRejectsFraming counts rejects from the framing check: short
	// file, bad magic or version, key mismatch.
	DiskRejectsFraming uint64 `json:"disk_rejects_framing"`
	// DiskRejectsPayload counts rejects from the caller's payload
	// validator — the entry framed correctly but its contents were not
	// a decodable trace.
	DiskRejectsPayload uint64 `json:"disk_rejects_payload"`
	// PutBytes counts cumulative payload bytes inserted via Put (the
	// encoded, post-codec size — what the disk tier actually stores).
	// With the codec's logical-byte totals (internal/analysis) it gives
	// operators the suite-wide compression ratio for tier sizing.
	PutBytes uint64 `json:"put_bytes"`
	// MemBytes is the memory tier's current payload footprint (a gauge,
	// filled at Snapshot time).
	MemBytes uint64 `json:"mem_bytes"`
	// Entries is the memory tier's current entry count (a gauge, filled
	// at Snapshot time).
	Entries uint64 `json:"entries"`
}

// HitRate is the fraction of lookups some tier served:
// (hits+disk_hits)/(hits+disk_hits+misses), 0 before any lookup.
// Singleflight waiters that join an in-progress fill count as misses.
func (s Stats) HitRate() float64 {
	looked := s.Hits + s.DiskHits + s.Misses
	if looked == 0 {
		return 0
	}
	return float64(s.Hits+s.DiskHits) / float64(looked)
}

// Store is the two-tier content-addressed cache. All methods are safe
// for concurrent use; the experiment grid runner captures workloads in
// parallel against one shared store.
type Store struct {
	mu       sync.Mutex
	budget   int64
	used     int64
	entries  map[Key]*list.Element
	lru      *list.List // front = most recently used
	dir      string
	validate func([]byte) error
	stats    Stats
	flights  map[Key]*flight
}

type lruEntry struct {
	key  Key
	data []byte
}

// flight is one in-progress fill (GetOrPut singleflight).
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// New builds a store. memBudget bounds the memory tier in payload
// bytes (0 = unbounded). dir, if non-empty, enables the disk tier
// rooted there (created if absent; creation failure disables the tier
// rather than failing the run — the cache is an accelerator, not a
// dependency). validate, if non-nil, is applied to every disk-loaded
// payload before it is served; entries that fail are deleted and
// treated as misses.
func New(memBudget int64, dir string, validate func([]byte) error) *Store {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			dir = ""
		}
	}
	return &Store{
		budget:   memBudget,
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
		dir:      dir,
		validate: validate,
		flights:  make(map[Key]*flight),
	}
}

// Snapshot returns the traffic counters plus the memory tier's current
// footprint gauges.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.MemBytes = uint64(s.used)
	st.Entries = uint64(len(s.entries))
	return st
}

// Get returns the payload cached under key and whether any tier held
// it. Callers must treat the returned bytes as immutable: the slice is
// shared with the cache and with every other caller of the same key.
func (s *Store) Get(key Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(key)
}

func (s *Store) getLocked(key Key) ([]byte, bool) {
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		s.stats.Hits++
		return el.Value.(*lruEntry).data, true
	}
	if data, ok := s.loadDisk(key); ok {
		s.insertLocked(key, data)
		s.stats.DiskHits++
		return data, true
	}
	s.stats.Misses++
	return nil, false
}

// Put caches the payload under key in both tiers. The store aliases
// data (no copy); the caller must not mutate it afterwards.
func (s *Store) Put(key Key, data []byte) {
	s.mu.Lock()
	s.insertLocked(key, data)
	s.stats.Puts++
	s.stats.PutBytes += uint64(len(data))
	s.mu.Unlock()
	s.writeDisk(key, data)
}

// GetOrPut returns the payload under key, calling fill to produce it
// on a miss. Concurrent callers of the same key share one fill
// (singleflight): exactly one runs, the rest block and receive its
// result. A fill error is returned to every waiter and nothing is
// cached, so transient failures (cancellation, runaway guards) never
// poison the key.
func (s *Store) GetOrPut(key Key, fill func() ([]byte, error)) ([]byte, error) {
	s.mu.Lock()
	if data, ok := s.getLocked(key); ok {
		s.mu.Unlock()
		return data, nil
	}
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		<-f.done
		return f.data, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	f.data, f.err = fill()
	if f.err == nil {
		s.Put(key, f.data)
	}
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
	return f.data, f.err
}

// insertLocked admits data into the memory tier, evicting from the LRU
// tail to respect the budget. A payload larger than the whole budget
// is not admitted (it would only evict everything else for one entry
// that cannot fit anyway).
func (s *Store) insertLocked(key Key, data []byte) {
	if el, ok := s.entries[key]; ok {
		ent := el.Value.(*lruEntry)
		s.used += int64(len(data)) - int64(len(ent.data))
		ent.data = data
		s.lru.MoveToFront(el)
		s.evictLocked()
		return
	}
	if s.budget > 0 && int64(len(data)) > s.budget {
		return
	}
	s.entries[key] = s.lru.PushFront(&lruEntry{key: key, data: data})
	s.used += int64(len(data))
	s.evictLocked()
}

func (s *Store) evictLocked() {
	for s.budget > 0 && s.used > s.budget && s.lru.Len() > 0 {
		el := s.lru.Back()
		ent := el.Value.(*lruEntry)
		s.lru.Remove(el)
		delete(s.entries, ent.key)
		s.used -= int64(len(ent.data))
		s.stats.Evictions++
	}
}

func (s *Store) path(key Key) string {
	return filepath.Join(s.dir, key.String()+".tea")
}

// loadDisk reads and validates the disk entry for key. Any defect —
// unreadable file, bad framing, key mismatch, failed payload
// validation — deletes the file and reports a miss.
func (s *Store) loadDisk(key Key) ([]byte, bool) {
	if s.dir == "" {
		return nil, false
	}
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false // absent (or unreadable): plain miss
	}
	got, payload, err := PayloadFromDiskEntry(raw)
	if err != nil || got != key {
		os.Remove(s.path(key))
		s.stats.DiskRejects++
		s.stats.DiskRejectsFraming++
		return nil, false
	}
	if s.validate != nil {
		if err := s.validate(payload); err != nil {
			os.Remove(s.path(key))
			s.stats.DiskRejects++
			s.stats.DiskRejectsPayload++
			return nil, false
		}
	}
	return payload, true
}

// PayloadFromDiskEntry strips the disk-tier framing from a raw entry
// file, returning the key the file claims to hold and its payload. It
// is the one framing parse: the store's load path also requires the key
// to match the file's name, while `teatrace -stats`, inspecting cache
// entries offline, does not, so a mislabeled file is still inspectable.
// Framing damage fails with a typed simerr.ErrDecode.
func PayloadFromDiskEntry(raw []byte) (Key, []byte, error) {
	var key Key
	hdr := len(diskMagic) + 1 + len(key)
	if len(raw) < hdr {
		return key, nil, simerr.New(simerr.ErrDecode, simerr.Snapshot{},
			"tracestore: entry shorter than header")
	}
	if [4]byte(raw[:4]) != diskMagic {
		return key, nil, simerr.New(simerr.ErrDecode, simerr.Snapshot{},
			"tracestore: bad magic")
	}
	if raw[4] != diskVersion {
		return key, nil, simerr.New(simerr.ErrDecode, simerr.Snapshot{},
			"tracestore: unsupported disk format %d", raw[4])
	}
	key = Key(raw[5:hdr])
	return key, raw[hdr:], nil
}

// writeDisk persists an entry atomically (temp file + rename), so a
// crash mid-write leaves either the old entry or none — never a
// torn file that a later run could half-read. Write failures are
// ignored: the disk tier is best-effort.
func (s *Store) writeDisk(key Key, data []byte) {
	if s.dir == "" {
		return
	}
	buf := make([]byte, 0, len(diskMagic)+1+len(key)+len(data))
	buf = append(buf, diskMagic[:]...)
	buf = append(buf, diskVersion)
	buf = append(buf, key[:]...)
	buf = append(buf, data...)
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, s.path(key)); err != nil {
		os.Remove(name)
	}
}
