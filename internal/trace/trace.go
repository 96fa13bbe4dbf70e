// Package trace provides the TraceDoctor-style trace substrate of the
// paper's methodology (Section 4): the core's probe event stream —
// per-cycle commit states, fetch/dispatch/commit/squash events with
// instruction addresses and PSVs — is serialized to a compact binary
// stream, and any set of profiling techniques can later be replayed
// against it offline, out-of-band from the simulation. This is exactly
// how the paper evaluates 15 configurations from one FPGA run: capture
// once, analyze many times.
//
// Format v4 (this file and reader.go) applies the redundancy-suppression
// idea from Arafa et al. ("Redundancy Suppression In Time-Aware Dynamic
// Binary Instrumentation") to the stream: traces are dominated by
// repeated loop bodies, whose records are identical *in delta space*
// even though their absolute sequence numbers and cycles differ. The
// writer buffers records in delta space, finds recurring record runs
// with an LZ-style match parse against the records already seen in the
// block (the per-stream pattern table), and serializes each block as a
// token stream (literal-run / match tokens) plus seven columnar literal
// arrays — kinds, cycle deltas, seq deltas, PC deltas, PSVs, commit
// states, commit counts — so the decoder runs tight per-column varint
// loops instead of a per-record kind switch. Matched records are never
// stored at all; the decoder re-materializes them by copying earlier
// records of the same block.
//
// The integrity digest is computed over decoded logical values exactly
// as in v3, so it is invariant under the encoding change: a v4 stream
// replays to byte-identical profiles and carries the same digest a v3
// stream of the same capture would.
package trace

import (
	"io"
	"math/bits"

	"encoding/binary"

	"repro/internal/cpu"
	"repro/internal/events"
)

// Record kinds. Kinds 1..5 appear inside blocks; recDone tags the
// stream's final section.
const (
	recFetch    = 0x01
	recDispatch = 0x02
	recCommit   = 0x03
	recSquash   = 0x04
	recCycle    = 0x05
	recDone     = 0x06
)

// blockTag introduces a columnar record block.
const blockTag = 0x10

// magic identifies a trace stream.
var magic = [4]byte{'T', 'E', 'A', 'T'}

// FormatVersion is the trace format version. Version 3 added the
// integrity digest carried by the done section: an FNV-style hash over
// every record's decoded logical values, letting the reader detect
// bit-flipped, reordered, or otherwise corrupted streams that still
// happen to decode — corruption yields a typed simerr.ErrDecode, never
// a silently wrong profile. Version 4 keeps the digest bit-for-bit (it
// hashes logical values, not encoding) and replaces the record-at-a-time
// layout with pattern-matched columnar blocks.
//
// The version is exported because it is part of the trace cache key
// (internal/tracestore): bumping the format invalidates every cached
// capture, in memory and on disk, without any explicit flush.
const FormatVersion = 4

// Digest parameters (FNV-1a's 64-bit constants, mixed per value rather
// than per byte; both sides hash decoded logical values, so neither the
// delta encoding nor the v4 pattern matching affects the digest).
const (
	digestOffset = 14695981039346656037
	digestPrime  = 1099511628211
)

func mix(h, v uint64) uint64 { return (h ^ v) * digestPrime }

// Decode guards: bounds on operands a well-formed core can emit.
// Values beyond them mean a corrupt stream, rejected as ErrDecode
// before they can drive unbounded allocation.
const (
	// maxCommitPerCycle bounds a Compute cycle's commit list (real
	// commit widths are single digits).
	maxCommitPerCycle = 1024
	// maxWindow bounds the replay's in-flight sliding window (real
	// occupancy is bounded by ROB + fetch buffer, a few hundred).
	maxWindow = 1 << 20
)

// Block geometry. The writer closes a block purely as a function of the
// logical record sequence (record count and buffered commit-list
// length), never of wall clock or buffer bytes, so equal record
// sequences always encode to byte-identical streams.
const (
	// blockRecords is the writer's per-block record budget.
	blockRecords = 1 << 15
	// maxBlockRecords bounds a decoded block's record count; the
	// writer stays at blockRecords, the slack tolerates forward
	// format tweaks without a version bump.
	maxBlockRecords = 1 << 16
	// blockListFlush closes a block early when its buffered commit
	// lists grow past this many entries; with the per-record
	// maxCommitPerCycle bound it caps materialized list memory at
	// maxBlockLists per block, on both sides of the codec.
	blockListFlush = 1 << 15
	// maxBlockLists bounds the total commit-list elements a decoder
	// will materialize for one block: a crafted stream cannot use
	// match tokens to amplify one literal 1024-entry list into an
	// unbounded allocation (ErrDecode instead).
	maxBlockLists = blockListFlush + maxCommitPerCycle
	// minMatch is the shortest record run worth a match token: below
	// four records the token + distance overhead beats the literals.
	minMatch = 4
	// hashBits sizes the pattern table (per-block match candidates).
	hashBits = 16
)

// nCols is the number of literal columns in a block, in serialization
// order: kinds, cycle deltas, seq deltas, PC deltas, PSVs, commit
// states, commit counts.
const nCols = 7

// Column indices into a block's literal columns.
const (
	colKinds = iota
	colCycles
	colSeqs
	colPCs
	colPSVs
	colStates
	colCounts
)

// ColumnNames names the literal columns in serialization order, for
// stats output and chaos-mode labels.
var ColumnNames = [nCols]string{"kinds", "cycles", "seqs", "pcs", "psvs", "states", "counts"}

// nKinds is the number of block record kinds (recFetch..recCycle).
const nKinds = recCycle

// KindNames names the block record kinds in kind order, for stats
// output: entry k-1 is kind k.
var KindNames = [nKinds]string{"fetch", "dispatch", "commit", "squash", "cycle"}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvlen is the encoded size of v as a uvarint — used to account the
// v3-equivalent "logical" stream size without materializing it.
func uvlen(v uint64) uint64 { return uint64(bits.Len64(v|1)+6) / 7 }

// Counters is the codec's one account of a stream: the logical
// (v3-equivalent record-at-a-time) size versus the encoded v4 size,
// where the encoded bytes live, how much of the stream the pattern
// table absorbed, and the per-record-kind breakdown. The writer keeps
// it while encoding; ScanStats reads it back from a stream by
// re-encoding, and Add sums the accounts of many streams. The JSON
// names are `teatrace -stats -json`'s keys.
type Counters struct {
	Streams        uint64 `json:"-"`               // done sections written: 1 per complete stream
	Records        uint64 `json:"records"`         // records serialized (including the done sections)
	Blocks         uint64 `json:"blocks"`          // columnar blocks emitted
	TotalCycles    uint64 `json:"total_cycles"`    // the done sections' cycle counts
	LitTokens      uint64 `json:"lit_tokens"`      // literal-run tokens
	MatchTokens    uint64 `json:"match_tokens"`    // match tokens
	MatchedRecords uint64 `json:"matched_records"` // records covered by match tokens
	EncodedBytes   uint64 `json:"encoded_bytes"`   // bytes actually written (v4)
	LogicalBytes   uint64 `json:"logical_bytes"`   // exact v3 encoding size of the same record sequence
	TokenBytes     uint64 `json:"token_bytes"`     // token-span payload bytes across blocks

	ColumnBytes [nCols]uint64  `json:"-"` // literal-column payload bytes, named by ColumnNames
	KindRecords [nKinds]uint64 `json:"-"` // block records per kind, named by KindNames
	KindBytes   [nKinds]uint64 `json:"-"` // v3-equivalent bytes per kind, named by KindNames
}

// Add folds the account of another stream into c.
func (c *Counters) Add(o Counters) {
	c.Streams += o.Streams
	c.Records += o.Records
	c.Blocks += o.Blocks
	c.TotalCycles += o.TotalCycles
	c.LitTokens += o.LitTokens
	c.MatchTokens += o.MatchTokens
	c.MatchedRecords += o.MatchedRecords
	c.EncodedBytes += o.EncodedBytes
	c.LogicalBytes += o.LogicalBytes
	c.TokenBytes += o.TokenBytes
	for i := range c.ColumnBytes {
		c.ColumnBytes[i] += o.ColumnBytes[i]
	}
	for i := range c.KindRecords {
		c.KindRecords[i] += o.KindRecords[i]
		c.KindBytes[i] += o.KindBytes[i]
	}
}

// BlockRecords counts the records the pattern table could absorb: every
// record but the done sections.
func (c Counters) BlockRecords() uint64 { return c.Records - c.Streams }

// PatternHitRate is the fraction of block records covered by match
// tokens rather than literals (0 with no block records).
func (c Counters) PatternHitRate() float64 {
	if c.BlockRecords() == 0 {
		return 0
	}
	return float64(c.MatchedRecords) / float64(c.BlockRecords())
}

// CompressionRatio is logical (v3-equivalent) bytes over encoded (v4)
// bytes — "how much smaller than format v3 this stream is" (0 with
// nothing encoded).
func (c Counters) CompressionRatio() float64 {
	if c.EncodedBytes == 0 {
		return 0
	}
	return float64(c.LogicalBytes) / float64(c.EncodedBytes)
}

// Writer is a cpu.Probe that serializes the probe event stream as
// format v4. Probe hooks delta-encode into per-record column buffers;
// when the block budget fills, the buffered records are match-parsed
// against themselves and serialized as one columnar block.
type Writer struct {
	cpu.BaseProbe
	w       io.Writer
	err     error
	started bool

	// buf accumulates one serialized block (plus header/done section)
	// before it is handed to the underlying writer, so a block is
	// written in a single Write call.
	buf []byte

	// Per-block record buffers, in delta space. opA holds the primary
	// operand (zigzag seq delta; commit state for cycle records), opB
	// the secondary one (zigzag PC delta for fetch, PSV for commit,
	// commit count or zigzag seq delta for cycle records). Compute
	// cycles' commit lists live flat in lists; listStart[i] points at
	// record i's span (length = opB[i]).
	kinds     []byte
	dCyc      []uint64
	opA       []uint64
	opB       []uint64
	listStart []uint32
	lists     []uint64
	// fps holds a per-record fingerprint over all delta-space fields,
	// the fast path for record equality during the match parse.
	fps []uint64

	// htab is the pattern table: hash of a minMatch-record fingerprint
	// window → most recent block position, -1 when empty. Cleared per
	// block.
	htab []int32

	// tokBuf and cols are the per-block serialization scratch.
	tokBuf []byte
	cols   [nCols][]byte

	// Delta-encoding state: cycles are monotonically non-decreasing;
	// sequence numbers and PCs are locally close, so signed deltas
	// compress well. Stream-continuous across blocks.
	lastCycle uint64
	lastSeq   uint64
	lastPC    uint64

	// digest accumulates the integrity hash over each record's logical
	// values; the done section carries it for the reader to verify.
	digest uint64

	c Counters
}

// NewWriter returns a trace writer targeting w. Attach it to a core
// like any other probe; the stream is complete after OnDone fires. The
// per-block record buffers are allocated once, at the most a block
// can hold, so encoding never grows them.
func NewWriter(w io.Writer) *Writer {
	return &Writer{
		w:         w,
		digest:    digestOffset,
		kinds:     make([]byte, 0, blockRecords),
		dCyc:      make([]uint64, 0, blockRecords),
		opA:       make([]uint64, 0, blockRecords),
		opB:       make([]uint64, 0, blockRecords),
		listStart: make([]uint32, 0, blockRecords),
		fps:       make([]uint64, 0, blockRecords),
		lists:     make([]uint64, 0, maxBlockLists),
	}
}

// Err returns the first write error, if any.
func (t *Writer) Err() error { return t.err }

// Counters returns the writer's codec statistics. Complete only after
// OnDone has fired (LogicalBytes/EncodedBytes include the done section).
func (t *Writer) Counters() Counters { return t.c }

func (t *Writer) header() {
	if t.started {
		return
	}
	t.started = true
	t.buf = append(t.buf, magic[:]...)
	t.buf = append(t.buf, FormatVersion)
	t.c.LogicalBytes += 5
}

func (t *Writer) flush() {
	if t.err == nil && len(t.buf) > 0 {
		_, t.err = t.w.Write(t.buf)
	}
	t.c.EncodedBytes += uint64(len(t.buf))
	t.buf = t.buf[:0]
}

// endRecord closes one buffered record of kind, whose v3 encoding is
// lb bytes; the block is serialized once the record or commit-list
// budget fills. Both thresholds are pure functions of the logical
// record sequence (see blockRecords).
func (t *Writer) endRecord(kind byte, lb uint64) {
	t.c.Records++
	t.c.KindRecords[kind-1]++
	t.c.KindBytes[kind-1] += lb
	t.c.LogicalBytes += lb
	if len(t.kinds) >= blockRecords || len(t.lists) >= blockListFlush {
		t.flushBlock()
	}
}

// push buffers one record in delta space and fingerprints it.
func (t *Writer) push(kind byte, dc, a, b uint64) {
	t.kinds = append(t.kinds, kind)
	t.dCyc = append(t.dCyc, dc)
	t.opA = append(t.opA, a)
	t.opB = append(t.opB, b)
	t.listStart = append(t.listStart, uint32(len(t.lists)))
	t.fps = append(t.fps, mix(mix(mix(mix(digestOffset, uint64(kind)), dc), a), b))
}

// pushList appends one commit-list element (zigzag seq delta) to the
// current record and folds it into the record's fingerprint.
func (t *Writer) pushList(d uint64) {
	t.lists = append(t.lists, d)
	i := len(t.fps) - 1
	t.fps[i] = mix(t.fps[i], d)
}

// OnFetch implements cpu.Probe.
func (t *Writer) OnFetch(r cpu.Ref, cycle uint64) {
	t.header()
	ds := zigzag(int64(r.Seq) - int64(t.lastSeq))
	dp := zigzag(int64(r.PC) - int64(t.lastPC))
	dc := cycle - t.lastCycle
	t.lastSeq, t.lastPC, t.lastCycle = r.Seq, r.PC, cycle
	t.push(recFetch, dc, ds, dp)
	t.digest = mix(mix(mix(mix(t.digest, recFetch), r.Seq), r.PC), cycle)
	t.endRecord(recFetch, 1+uvlen(ds)+uvlen(dp)+uvlen(dc))
}

// OnDispatch implements cpu.Probe.
func (t *Writer) OnDispatch(r cpu.Ref, cycle uint64) {
	t.header()
	ds := zigzag(int64(r.Seq) - int64(t.lastSeq))
	dc := cycle - t.lastCycle
	t.lastSeq, t.lastCycle = r.Seq, cycle
	t.push(recDispatch, dc, ds, 0)
	t.digest = mix(mix(mix(t.digest, recDispatch), r.Seq), cycle)
	t.endRecord(recDispatch, 1+uvlen(ds)+uvlen(dc))
}

// OnCommit implements cpu.Probe. The µop's PSV is final here.
func (t *Writer) OnCommit(r cpu.Ref, cycle uint64) {
	t.header()
	ds := zigzag(int64(r.Seq) - int64(t.lastSeq))
	dc := cycle - t.lastCycle
	t.lastSeq, t.lastCycle = r.Seq, cycle
	t.push(recCommit, dc, ds, uint64(r.PSV))
	t.digest = mix(mix(mix(mix(t.digest, recCommit), r.Seq), uint64(r.PSV)), cycle)
	t.endRecord(recCommit, 1+uvlen(ds)+uvlen(uint64(r.PSV))+uvlen(dc))
}

// OnSquash implements cpu.Probe.
func (t *Writer) OnSquash(r cpu.Ref, cycle uint64) {
	t.header()
	ds := zigzag(int64(r.Seq) - int64(t.lastSeq))
	dc := cycle - t.lastCycle
	t.lastSeq, t.lastCycle = r.Seq, cycle
	t.push(recSquash, dc, ds, 0)
	t.digest = mix(mix(mix(t.digest, recSquash), r.Seq), cycle)
	t.endRecord(recSquash, 1+uvlen(ds)+uvlen(dc))
}

// OnCycle implements cpu.Probe. Commit records for the cycle precede
// the cycle record in the live probe ordering... the core fires
// OnCommit during the commit stage and OnCycle at its end, so the
// stream preserves that order naturally.
func (t *Writer) OnCycle(ci *cpu.CycleInfo) {
	t.header()
	dc := ci.Cycle - t.lastCycle
	t.lastCycle = ci.Cycle
	h := mix(mix(mix(t.digest, recCycle), ci.Cycle), uint64(ci.State))
	lb := uint64(2) + uvlen(dc) // kind byte + state byte + cycle delta
	switch ci.State {
	case events.Compute:
		n := uint64(len(ci.Committed))
		t.push(recCycle, dc, uint64(ci.State), n)
		h = mix(h, n)
		lb += uvlen(n)
		for _, r := range ci.Committed {
			ds := zigzag(int64(r.Seq) - int64(t.lastSeq))
			t.lastSeq = r.Seq
			t.pushList(ds)
			h = mix(h, r.Seq)
			lb += uvlen(ds)
		}
	case events.Stalled:
		ds := zigzag(int64(ci.Head.Seq) - int64(t.lastSeq))
		t.lastSeq = ci.Head.Seq
		t.push(recCycle, dc, uint64(ci.State), ds)
		h = mix(h, ci.Head.Seq)
		lb += uvlen(ds)
	case events.Flushed:
		ds := zigzag(int64(ci.LastCommitted.Seq) - int64(t.lastSeq))
		t.lastSeq = ci.LastCommitted.Seq
		t.push(recCycle, dc, uint64(ci.State), ds)
		h = mix(h, ci.LastCommitted.Seq)
		lb += uvlen(ds)
	default: // events.Drained: no operand; the next commit resolves the attribution.
		t.push(recCycle, dc, uint64(ci.State), 0)
	}
	t.digest = h
	t.endRecord(recCycle, lb)
}

// OnCycles implements cpu.RunProbe. The run's first record is
// OnCycle's; every later one is identical to it in delta space (cycle
// delta 1, the same state, a zero seq delta), so the run's records are
// appended without a call per cycle, and the block closes exactly where
// endRecord would close it. The digest still folds every record.
func (t *Writer) OnCycles(ci *cpu.CycleInfo, n uint64) {
	if ci.State == events.Compute {
		cpu.EachCycle(ci, n, t.OnCycle)
		return
	}
	t.OnCycle(ci)
	state := uint64(ci.State)
	var seq uint64
	hasSeq := ci.State != events.Drained
	switch ci.State {
	case events.Stalled:
		seq = ci.Head.Seq
	case events.Flushed:
		seq = ci.LastCommitted.Seq
	}
	fp := mix(mix(mix(mix(digestOffset, recCycle), 1), state), 0)
	lb := uint64(3) // kind byte + state byte + cycle delta 1
	if hasSeq {
		lb++ // seq delta 0
	}
	h := t.digest
	cycle := ci.Cycle
	for rem := n - 1; rem > 0; {
		m := min(rem, uint64(blockRecords-len(t.kinds)))
		ls := uint32(len(t.lists))
		for range m {
			cycle++
			t.kinds = append(t.kinds, recCycle)
			t.dCyc = append(t.dCyc, 1)
			t.opA = append(t.opA, state)
			t.opB = append(t.opB, 0)
			t.listStart = append(t.listStart, ls)
			t.fps = append(t.fps, fp)
			h = mix(mix(mix(h, recCycle), cycle), state)
			if hasSeq {
				h = mix(h, seq)
			}
		}
		t.c.Records += m
		t.c.KindRecords[recCycle-1] += m
		t.c.KindBytes[recCycle-1] += m * lb
		t.c.LogicalBytes += m * lb
		if len(t.kinds) >= blockRecords {
			t.flushBlock()
		}
		rem -= m
	}
	t.digest = h
	t.lastCycle = cycle
}

// OnDone implements cpu.Probe and finalizes the stream: any buffered
// block is serialized, then the done section carries the total cycle
// count and the integrity digest over everything recorded before it.
func (t *Writer) OnDone(totalCycles uint64) {
	t.header()
	t.flushBlock()
	t.buf = append(t.buf, recDone)
	t.buf = binary.AppendUvarint(t.buf, totalCycles)
	t.digest = mix(mix(t.digest, recDone), totalCycles)
	t.buf = binary.AppendUvarint(t.buf, t.digest)
	t.c.Streams++
	t.c.Records++
	t.c.TotalCycles = totalCycles
	t.c.LogicalBytes += 1 + uvlen(totalCycles) + uvlen(t.digest)
	t.flush()
}

// recEq reports whether buffered records i and j are identical in
// delta space. The fingerprint comparison is only a fast path; a
// colliding pair must not produce a false match (it would corrupt the
// stream), so equality is always confirmed field by field.
func (t *Writer) recEq(i, j int) bool {
	if t.fps[i] != t.fps[j] {
		return false
	}
	if t.kinds[i] != t.kinds[j] || t.dCyc[i] != t.dCyc[j] ||
		t.opA[i] != t.opA[j] || t.opB[i] != t.opB[j] {
		return false
	}
	if t.kinds[i] == recCycle && t.opA[i] == uint64(events.Compute) {
		n := int(t.opB[i])
		si, sj := int(t.listStart[i]), int(t.listStart[j])
		for k := 0; k < n; k++ {
			if t.lists[si+k] != t.lists[sj+k] {
				return false
			}
		}
	}
	return true
}

// matchLen extends a candidate match at (i ← j), returning how many
// consecutive records agree. Self-overlap (j+k crossing i) is fine:
// the decoder copies element-wise, so an overlapping match replicates
// a short period — exactly the loop-body case.
func (t *Writer) matchLen(i, j int) int {
	n := len(t.kinds)
	k := 0
	for i+k < n && t.recEq(i+k, j+k) {
		k++
	}
	return k
}

// hashAt hashes the minMatch-record fingerprint window starting at i.
func (t *Writer) hashAt(i int) uint32 {
	h := uint64(digestOffset)
	h = mix(h, t.fps[i])
	h = mix(h, t.fps[i+1])
	h = mix(h, t.fps[i+2])
	h = mix(h, t.fps[i+3])
	return uint32(h>>(64-hashBits)) & (1<<hashBits - 1)
}

// flushBlock match-parses the buffered records and serializes them as
// one columnar block.
func (t *Writer) flushBlock() {
	n := len(t.kinds)
	if n == 0 {
		return
	}

	if t.htab == nil {
		t.htab = make([]int32, 1<<hashBits)
	}
	for i := range t.htab {
		t.htab[i] = -1
	}

	// Greedy parse: at each position try the most recent hash-table
	// candidate and the previous match distance, take the longer run.
	// Tokens: uvarint v — even: literal run of v>>1 records; odd:
	// match of v>>1 records followed by uvarint distance.
	t.tokBuf = t.tokBuf[:0]
	nTokens := 0
	emitLit := func(s, e int) {
		if e > s {
			t.tokBuf = binary.AppendUvarint(t.tokBuf, uint64(e-s)<<1)
			nTokens++
			t.c.LitTokens++
			t.serializeLits(s, e)
		}
	}
	litStart := 0
	prevDist := 0
	for i := 0; i < n; {
		bestLen, bestDist := 0, 0
		if i+minMatch <= n {
			h := t.hashAt(i)
			if cand := int(t.htab[h]); cand >= 0 && cand < i {
				if l := t.matchLen(i, cand); l >= minMatch {
					bestLen, bestDist = l, i-cand
				}
			}
			if prevDist > 0 && i-prevDist >= 0 && prevDist != bestDist {
				if l := t.matchLen(i, i-prevDist); l >= minMatch && l >= bestLen {
					bestLen, bestDist = l, prevDist
				}
			}
			t.htab[h] = int32(i)
		}
		if bestLen == 0 {
			i++
			continue
		}
		emitLit(litStart, i)
		t.tokBuf = binary.AppendUvarint(t.tokBuf, uint64(bestLen)<<1|1)
		t.tokBuf = binary.AppendUvarint(t.tokBuf, uint64(bestDist))
		nTokens++
		t.c.MatchTokens++
		t.c.MatchedRecords += uint64(bestLen)
		prevDist = bestDist
		// Seed the pattern table across the matched span so later
		// positions can reference runs inside it.
		for j := i + 1; j < i+bestLen && j+minMatch <= n; j++ {
			t.htab[t.hashAt(j)] = int32(j)
		}
		i += bestLen
		litStart = i
	}
	emitLit(litStart, n)

	// Block framing: tag, record/token counts, token span, then the
	// seven length-prefixed literal columns.
	t.buf = append(t.buf, blockTag)
	t.buf = binary.AppendUvarint(t.buf, uint64(n))
	t.buf = binary.AppendUvarint(t.buf, uint64(nTokens))
	t.buf = binary.AppendUvarint(t.buf, uint64(len(t.tokBuf)))
	t.buf = append(t.buf, t.tokBuf...)
	t.c.TokenBytes += uint64(len(t.tokBuf))
	for ci := 0; ci < nCols; ci++ {
		t.buf = binary.AppendUvarint(t.buf, uint64(len(t.cols[ci])))
		t.buf = append(t.buf, t.cols[ci]...)
		t.c.ColumnBytes[ci] += uint64(len(t.cols[ci]))
	}
	t.c.Blocks++
	t.flush()

	t.kinds = t.kinds[:0]
	t.dCyc = t.dCyc[:0]
	t.opA = t.opA[:0]
	t.opB = t.opB[:0]
	t.listStart = t.listStart[:0]
	t.lists = t.lists[:0]
	t.fps = t.fps[:0]
	for ci := 0; ci < nCols; ci++ {
		t.cols[ci] = t.cols[ci][:0]
	}
}

// serializeLits appends records [s, e) to the literal columns.
func (t *Writer) serializeLits(s, e int) {
	for r := s; r < e; r++ {
		kind := t.kinds[r]
		t.cols[colKinds] = append(t.cols[colKinds], kind)
		t.cols[colCycles] = binary.AppendUvarint(t.cols[colCycles], t.dCyc[r])
		switch kind {
		case recFetch:
			t.cols[colSeqs] = binary.AppendUvarint(t.cols[colSeqs], t.opA[r])
			t.cols[colPCs] = binary.AppendUvarint(t.cols[colPCs], t.opB[r])
		case recDispatch, recSquash:
			t.cols[colSeqs] = binary.AppendUvarint(t.cols[colSeqs], t.opA[r])
		case recCommit:
			t.cols[colSeqs] = binary.AppendUvarint(t.cols[colSeqs], t.opA[r])
			t.cols[colPSVs] = binary.AppendUvarint(t.cols[colPSVs], t.opB[r])
		case recCycle:
			t.cols[colStates] = append(t.cols[colStates], byte(t.opA[r]))
			switch events.CommitState(t.opA[r]) {
			case events.Compute:
				t.cols[colCounts] = binary.AppendUvarint(t.cols[colCounts], t.opB[r])
				ls := int(t.listStart[r])
				for k := 0; k < int(t.opB[r]); k++ {
					t.cols[colSeqs] = binary.AppendUvarint(t.cols[colSeqs], t.lists[ls+k])
				}
			case events.Stalled, events.Flushed:
				t.cols[colSeqs] = binary.AppendUvarint(t.cols[colSeqs], t.opB[r])
			}
		}
	}
}
