package analysis

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/simerr"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// DefaultStoreBudget is the default memory-tier budget of the process
// trace store. Suite traces are tens of KB each (~0.13 bytes/cycle;
// the whole suite at scale 0.25 is 388,366 bytes), so the budget
// comfortably holds every capture the benchmark harness needs while
// still bounding a pathological run.
const DefaultStoreBudget = 512 << 20

// NewTraceStore builds a trace store wired with this package's entry
// validator, so disk-tier entries are verified end to end (stats
// envelope + trace integrity digest) before being served. dir == ""
// disables the disk tier; memBudget 0 leaves the memory tier
// unbounded.
func NewTraceStore(memBudget int64, dir string) *tracestore.Store {
	return tracestore.New(memBudget, dir, validateEntry)
}

var (
	storeMu    sync.RWMutex
	traceStore = NewTraceStore(DefaultStoreBudget, "")
)

// SetTraceStore swaps the process-wide trace store (e.g. to attach a
// disk tier from the -tracecache flag / TEA_TRACE_CACHE) and returns
// the previous one so tests can restore it.
func SetTraceStore(s *tracestore.Store) *tracestore.Store {
	storeMu.Lock()
	defer storeMu.Unlock()
	prev := traceStore
	traceStore = s
	return prev
}

// TraceStore returns the process-wide trace store.
func TraceStore() *tracestore.Store {
	storeMu.RLock()
	defer storeMu.RUnlock()
	return traceStore
}

// captureCount counts actual simulations performed by the cached
// capture path (cache hits do not increment it). The frequency-sweep
// equivalence test asserts exactly one capture per workload through
// it, and the disk-tier test asserts a second run performs zero.
var captureCount atomic.Uint64

// CaptureCount returns the number of simulations the cached capture
// path has performed in this process.
func CaptureCount() uint64 { return captureCount.Load() }

// Codec totals: every finished capture writer folds its trace.Counters
// in here, so operators can see suite-wide logical-vs-encoded bytes —
// the basis for sizing the disk tier — on /v1/stats without re-scanning
// any stream.
var (
	codecCaptures atomic.Uint64
	codecRecords  atomic.Uint64
	codecMatched  atomic.Uint64
	codecLogical  atomic.Uint64
	codecEncoded  atomic.Uint64
)

// CodecTotals is the process-wide aggregate of trace codec work.
type CodecTotals struct {
	Captures       uint64 // capture streams written
	Records        uint64 // records across those streams
	MatchedRecords uint64 // records absorbed by the pattern table
	LogicalBytes   uint64 // v3-equivalent record-at-a-time bytes
	EncodedBytes   uint64 // v4 bytes actually produced
}

// CompressionRatio is suite-wide logical over encoded bytes.
func (t CodecTotals) CompressionRatio() float64 {
	if t.EncodedBytes == 0 {
		return 0
	}
	return float64(t.LogicalBytes) / float64(t.EncodedBytes)
}

func addCodecCounters(c trace.Counters) {
	codecCaptures.Add(1)
	codecRecords.Add(c.Records)
	codecMatched.Add(c.MatchedRecords)
	codecLogical.Add(c.LogicalBytes)
	codecEncoded.Add(c.EncodedBytes)
}

// CodecTotalStats returns the process-wide codec totals.
func CodecTotalStats() CodecTotals {
	return CodecTotals{
		Captures:       codecCaptures.Load(),
		Records:        codecRecords.Load(),
		MatchedRecords: codecMatched.Load(),
		LogicalBytes:   codecLogical.Load(),
		EncodedBytes:   codecEncoded.Load(),
	}
}

// captureKey derives the content address of one capture: a SHA-256
// over the trace format version, the program's complete contents, and
// every RunConfig field. The cachekey analyzer enforces the "every
// field" part — adding a knob to RunConfig (or any struct it reaches)
// without folding it in here is a vet failure.
//
//tealint:cachekey
func captureKey(p *program.Program, rc RunConfig) tracestore.Key {
	h := tracestore.NewHasher()
	h.Uint(trace.FormatVersion)
	h.Program(p)
	h.Uint(rc.Interval)
	h.Uint(rc.Jitter)
	h.Uint(rc.Seed)
	h.Float(rc.Scale)
	h.CPUConfig(rc.Core)
	// Zeros where two retired capture knobs were hashed keep old keys valid.
	h.Uint(0)
	h.Uint(0)
	return h.Sum()
}

// captureConfig canonicalizes rc for capture keying. The captured
// stream depends only on the program and the core configuration:
// Interval, Jitter, and Seed drive the samplers, which run at replay
// time, and Scale is already baked into the built program's iteration
// count. Zeroing them here means every sweep point and every figure
// that shares a (program, core) pair shares one capture — while
// captureKey itself stays sensitive to every field, so callers that
// hash a non-canonical config (none today) would still be correct,
// just less shared.
func captureConfig(rc RunConfig) RunConfig {
	rc.Interval, rc.Jitter, rc.Seed = 0, 0, 0
	rc.Scale = 0
	return rc
}

// ProfileKey addresses the profiles one run renders: a digest over the
// trace format version, the program, the canonical capture
// configuration (captureConfig), and the sampling knobs Interval,
// Jitter, and Seed. Like the capture key it leaves out Scale, which is
// already baked into the program. Technique derives each technique's
// key from it, so a job keying several techniques hashes its program
// once.
type ProfileKey tracestore.Key

// NewProfileKey derives the profile key of running p under rc.
//
//tealint:cachekey
func NewProfileKey(p *program.Program, rc RunConfig) ProfileKey {
	h := tracestore.NewHasher()
	h.Key(captureKey(p, captureConfig(rc)))
	h.Uint(rc.Interval)
	h.Uint(rc.Jitter)
	h.Uint(rc.Seed)
	return ProfileKey(h.Sum())
}

// Technique returns the key of the named technique's rendered profile.
func (k ProfileKey) Technique(name string) tracestore.Key {
	h := tracestore.NewHasher()
	h.Key(tracestore.Key(k))
	h.String(name)
	return h.Sum()
}

// capture returns the encoded trace and run statistics for j,
// simulating only if no store tier holds the capture under j.key.
// Concurrent callers of the same key share one simulation. The
// returned trace bytes are shared with the cache and other callers —
// they must only be replayed, never mutated (the chaos harness, which
// does mutate, uses CaptureTrace directly). The returned Stats is a
// fresh copy each call.
func (j captureJob) capture(ctx context.Context) ([]byte, *cpu.Stats, error) {
	entry, err := TraceStore().GetOrPut(j.key, func() ([]byte, error) {
		captureCount.Add(1)
		data, stats, err := CaptureTrace(ctx, j.p, captureConfig(j.rc))
		if err != nil {
			return nil, err
		}
		return encodeEntry(stats, data)
	})
	if err != nil {
		return nil, nil, err
	}
	stats, data, err := decodeEntry(entry)
	if err != nil {
		// Memory-tier entries come from our own encoder and disk-tier
		// entries pass validateEntry before being served, so this is an
		// internal bug, not cache corruption.
		return nil, nil, simerr.Wrap(simerr.ErrInternal,
			simerr.Snapshot{Program: j.p.Name}, err, "trace cache entry undecodable")
	}
	return data, stats, nil
}

// Cache entries carry the run's cpu.Stats alongside the trace stream
// (a replayed BenchRun needs both): a varint-length-prefixed stats
// JSON, then the raw trace bytes.

func encodeEntry(stats *cpu.Stats, data []byte) ([]byte, error) {
	sj, err := json.Marshal(stats)
	if err != nil {
		return nil, simerr.Wrap(simerr.ErrInternal, simerr.Snapshot{}, err,
			"encoding capture stats")
	}
	out := make([]byte, 0, binary.MaxVarintLen64+len(sj)+len(data))
	out = binary.AppendUvarint(out, uint64(len(sj)))
	out = append(out, sj...)
	out = append(out, data...)
	return out, nil
}

func decodeEntry(entry []byte) (*cpu.Stats, []byte, error) {
	n, w := binary.Uvarint(entry)
	if w <= 0 || n > uint64(len(entry)-w) {
		return nil, nil, simerr.New(simerr.ErrDecode, simerr.Snapshot{},
			"trace cache entry: bad stats length")
	}
	var stats cpu.Stats
	if err := json.Unmarshal(entry[w:w+int(n)], &stats); err != nil {
		return nil, nil, simerr.Wrap(simerr.ErrDecode, simerr.Snapshot{}, err,
			"trace cache entry: stats")
	}
	return &stats, entry[w+int(n):], nil
}

// DecodeCachedEntry splits a trace-store entry into its run statistics
// and raw trace stream without validating the stream (callers that need
// validation replay or Verify it). `teatrace -stats` uses it to inspect
// cache entries directly.
func DecodeCachedEntry(entry []byte) (*cpu.Stats, []byte, error) {
	return decodeEntry(entry)
}

// validateEntry is the disk-tier validator: an entry is served only if
// its stats envelope parses and the trace stream inside decodes end to
// end with a matching integrity digest. Anything less is treated as a
// miss by the store (recapture), so cache corruption can never surface
// as an ErrDecode — let alone a wrong profile — in an experiment.
func validateEntry(entry []byte) error {
	_, data, err := decodeEntry(entry)
	if err != nil {
		return err
	}
	return trace.Verify(data)
}
