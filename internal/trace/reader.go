package trace

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/simerr"
)

// winEnt is one in-flight instruction inside the replay's sliding
// window.
type winEnt struct {
	pc        uint64
	psv       events.PSV
	committed bool
}

// Replay feeds a recorded trace to a set of probes, reconstructing the
// refs the live probes would have seen. The probes cannot tell replay
// from a live run: profiles built offline are identical to online ones
// (the paper's out-of-band host processing).
//
// Sequence numbers are dense and retire roughly in order, so in-flight
// instructions live in a small sliding window indexed by seq instead of
// a map; the replay loop performs no per-record allocation. Committed
// entries are dropped from the window once their cycle record has been
// delivered; only the most recent committed instruction stays
// referenceable (Flushed cycles point at it). Squashed entries stay in
// place — the same sequence number is re-fetched later, which resets
// the entry, mirroring the fresh µop the live core allocates.
//
// Every failure — truncation, implausible operands, a malformed token
// or column, an integrity-digest mismatch — returns a typed
// *simerr.Error of kind simerr.ErrDecode with the failing record's
// position in its snapshot. Replay never panics on malformed input
// (FuzzReplay pins this).
//
//tealint:ctxroot uncancellable convenience entry point: callers with a context use ReplayContext
func Replay(r io.Reader, probes ...cpu.Probe) (totalCycles uint64, err error) {
	return ReplayContext(context.Background(), r, probes...)
}

// ReplayContext is Replay honoring cancellation: the context is polled
// periodically and a cancelled replay returns simerr.ErrCanceled
// wrapping ctx.Err() before the probes' completion hooks fire, so no
// partial profile can be observed downstream. The stream is read fully
// into memory first (captures are in-memory artifacts already), then
// decoded by ReplayBytes.
func ReplayContext(ctx context.Context, r io.Reader, probes ...cpu.Probe) (totalCycles uint64, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, simerr.Wrap(simerr.ErrDecode, simerr.Snapshot{}, err, "trace: reading stream")
	}
	return ReplayBytes(ctx, data, probes...)
}

// Verify decodes a complete in-memory stream with no probes attached:
// it returns nil only if the stream is well-formed end to end and its
// integrity digest matches. The trace cache (internal/tracestore via
// internal/analysis) validates disk-tier entries with it before
// serving them, so a corrupt cache file is a miss, never an ErrDecode
// surfaced to an experiment.
//
//tealint:ctxroot integrity check over an in-memory buffer, bounded by the buffer's length; nothing upstream to cancel it
func Verify(data []byte) error {
	_, err := ReplayBytes(context.Background(), data)
	return err
}

// tok is one parsed block token: a literal run (dist == 0) or a match.
type tok struct {
	n    int32
	dist int32
}

// decodeState is the pooled per-replay decode state: the parsed-token
// and literal-column scratch, the materialized per-record arrays that
// double as the pattern table for match copies, the sliding window of
// in-flight instructions, and the CycleInfo delivered to probes. The
// grid runner replays each shared capture many times (per figure, per
// sweep interval, per study), so recycling this state keeps
// the replay loop allocation-free across replays, not just within one.
type decodeState struct {
	toks []tok

	// Literal columns, decoded tightly up front (Pass B).
	litCyc   []uint64
	litSeq   []uint64
	litPC    []uint64
	litPSV   []uint64
	litCount []uint64

	// Materialized delta-space records for the current block; match
	// tokens copy from these.
	mKind      []byte
	mCyc       []uint64
	mA         []uint64
	mB         []uint64
	mListStart []uint32
	mLists     []uint64

	win []winEnt
	ci  cpu.CycleInfo
}

var replayPool = sync.Pool{New: func() any { return new(decodeState) }}

var (
	errVarintOverflow = errors.New("varint overflows a 64-bit integer")
	errTrailing       = errors.New("trailing bytes after last value")
)

// decodeCol decodes exactly n uvarints from span into dst, requiring
// the span to be consumed exactly — a column cannot hide extra bytes.
func decodeCol(dst []uint64, span []byte, n int) ([]uint64, error) {
	dst = dst[:0]
	p := 0
	for i := 0; i < n; i++ {
		v, sz := binary.Uvarint(span[p:])
		if sz == 0 {
			return dst, io.ErrUnexpectedEOF
		}
		if sz < 0 {
			return dst, errVarintOverflow
		}
		p += sz
		dst = append(dst, v)
	}
	if p != len(span) {
		return dst, errTrailing
	}
	return dst, nil
}

// ReplayBytes is ReplayContext for a complete in-memory stream — the
// replay hot path. Decoding runs on slice cursors with pooled
// block/window state, so one replay performs no per-record reads and no
// per-record allocation beyond the pooled block scratch. The data is
// only read, never written: callers may replay the same shared bytes
// from many goroutines concurrently.
func ReplayBytes(ctx context.Context, data []byte, probes ...cpu.Probe) (totalCycles uint64, err error) {
	// Decode state shared with the error-snapshot helper.
	var (
		lastCycle, lastSeq, lastPC uint64
		records                    uint64
		digest                     = uint64(digestOffset)
		pos                        int
	)
	decodeErr := func(cause error, format string, args ...any) error {
		snap := simerr.Snapshot{Cycle: lastCycle, Seq: lastSeq}
		snap.Detail = fmt.Sprintf("record %d", records)
		if cause != nil {
			return simerr.Wrap(simerr.ErrDecode, snap, cause, format, args...)
		}
		return simerr.New(simerr.ErrDecode, snap, format, args...)
	}

	if len(data) < 5 {
		return 0, decodeErr(io.ErrUnexpectedEOF, "trace: reading header")
	}
	if [4]byte(data[:4]) != magic {
		return 0, decodeErr(nil, "trace: bad magic")
	}
	if data[4] != FormatVersion {
		return 0, decodeErr(nil, "trace: unsupported version %d", data[4])
	}
	pos = 5

	st := replayPool.Get().(*decodeState)
	var (
		win  = st.win[:0]
		head int    // index of the window's first live entry
		base uint64 // seq of win[head]
		last cpu.Ref
	)
	ci := &st.ci
	defer func() {
		st.win = win[:0]
		ci.Committed = ci.Committed[:0]
		ci.Head, ci.LastCommitted = cpu.Ref{}, cpu.Ref{}
		replayPool.Put(st)
	}()

	// ensure grows the window to cover seq and returns its entry. The
	// caller checks the maxWindow guard first.
	ensure := func(seq uint64) *winEnt {
		for uint64(len(win)-head) <= seq-base {
			win = append(win, winEnt{})
		}
		return &win[head+int(seq-base)]
	}
	// ref builds the value-typed view of seq; sequence numbers outside
	// the window (malformed traces) synthesize a zero entry.
	ref := func(seq uint64) cpu.Ref {
		if seq >= base && seq-base < uint64(len(win)-head) {
			e := &win[head+int(seq-base)]
			return cpu.Ref{Seq: seq, PC: e.pc, PSV: e.psv}
		}
		return cpu.Ref{Seq: seq}
	}

	u64 := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		if n < 0 {
			return 0, errVarintOverflow
		}
		pos += n
		return v, nil
	}

	for {
		if cause := context.Cause(ctx); cause != nil {
			return totalCycles, simerr.Wrap(simerr.ErrCanceled,
				simerr.Snapshot{Cycle: lastCycle, Seq: lastSeq}, cause, "replay canceled")
		}
		if pos >= len(data) {
			return totalCycles, decodeErr(nil, "trace: truncated stream (no done section)")
		}
		tag := data[pos]
		pos++
		switch tag {
		case blockTag:
			// --- Block framing ---
			nRec64, err1 := u64()
			nTok64, err2 := u64()
			tokLen64, err3 := u64()
			if err := firstErr(err1, err2, err3); err != nil {
				return totalCycles, decodeErr(err, "trace: block header")
			}
			if nRec64 == 0 || nRec64 > maxBlockRecords {
				return totalCycles, decodeErr(nil, "trace: implausible block record count %d", nRec64)
			}
			if nTok64 == 0 || nTok64 > nRec64 {
				return totalCycles, decodeErr(nil, "trace: implausible block token count %d", nTok64)
			}
			if tokLen64 > uint64(len(data)-pos) {
				return totalCycles, decodeErr(io.ErrUnexpectedEOF, "trace: block token span")
			}
			nRec, nTok := int(nRec64), int(nTok64)
			tokens := data[pos : pos+int(tokLen64)]
			pos += int(tokLen64)
			var colSpan [nCols][]byte
			for c := 0; c < nCols; c++ {
				l, err := u64()
				if err != nil {
					return totalCycles, decodeErr(err, "trace: %s column length", ColumnNames[c])
				}
				if l > uint64(len(data)-pos) {
					return totalCycles, decodeErr(io.ErrUnexpectedEOF, "trace: %s column span", ColumnNames[c])
				}
				colSpan[c] = data[pos : pos+int(l)]
				pos += int(l)
			}

			// --- Pass A: token parse ---
			st.toks = st.toks[:0]
			tp := 0
			total, litN := 0, 0
			for k := 0; k < nTok; k++ {
				v, sz := binary.Uvarint(tokens[tp:])
				if sz <= 0 {
					return totalCycles, decodeErr(io.ErrUnexpectedEOF, "trace: block token %d", k)
				}
				tp += sz
				l := v >> 1
				if l == 0 || l > maxBlockRecords || int(l) > nRec-total {
					return totalCycles, decodeErr(nil, "trace: implausible token run length %d", l)
				}
				if v&1 == 1 {
					d, sz := binary.Uvarint(tokens[tp:])
					if sz <= 0 {
						return totalCycles, decodeErr(io.ErrUnexpectedEOF, "trace: match distance (token %d)", k)
					}
					tp += sz
					if d == 0 || d > uint64(total) {
						return totalCycles, decodeErr(nil,
							"trace: match distance %d exceeds %d materialized records", d, total)
					}
					st.toks = append(st.toks, tok{n: int32(l), dist: int32(d)})
				} else {
					st.toks = append(st.toks, tok{n: int32(l)})
					litN += int(l)
				}
				total += int(l)
			}
			if total != nRec {
				return totalCycles, decodeErr(nil, "trace: tokens cover %d of %d records", total, nRec)
			}
			if tp != len(tokens) {
				return totalCycles, decodeErr(errTrailing, "trace: block token span")
			}

			// --- Pass B: tight per-column literal decode ---
			litKind := colSpan[colKinds]
			if len(litKind) != litN {
				return totalCycles, decodeErr(nil,
					"trace: kinds column holds %d of %d literal records", len(litKind), litN)
			}
			var nFetch, nDispatch, nCommit, nSquash, nCycle int
			for _, k := range litKind {
				switch k {
				case recFetch:
					nFetch++
				case recDispatch:
					nDispatch++
				case recCommit:
					nCommit++
				case recSquash:
					nSquash++
				case recCycle:
					nCycle++
				default:
					return totalCycles, decodeErr(nil, "trace: unknown record kind %#x", k)
				}
			}
			var derr error
			if st.litCyc, derr = decodeCol(st.litCyc, colSpan[colCycles], litN); derr != nil {
				return totalCycles, decodeErr(derr, "trace: cycles column")
			}
			litState := colSpan[colStates]
			if len(litState) != nCycle {
				return totalCycles, decodeErr(nil,
					"trace: states column holds %d of %d cycle records", len(litState), nCycle)
			}
			var nCompute, nStallFlush int
			for _, s := range litState {
				switch events.CommitState(s) {
				case events.Compute:
					nCompute++
				case events.Stalled, events.Flushed:
					nStallFlush++
				case events.Drained:
				default:
					return totalCycles, decodeErr(nil, "trace: unknown commit state %d", s)
				}
			}
			if st.litCount, derr = decodeCol(st.litCount, colSpan[colCounts], nCompute); derr != nil {
				return totalCycles, decodeErr(derr, "trace: counts column")
			}
			listTotal := 0
			for _, n := range st.litCount {
				if n > maxCommitPerCycle {
					return totalCycles, decodeErr(nil,
						"trace: implausible commit count %d in one cycle", n)
				}
				listTotal += int(n)
				if listTotal > maxBlockLists {
					return totalCycles, decodeErr(nil,
						"trace: block commit lists exceed %d entries", maxBlockLists)
				}
			}
			needSeq := nFetch + nDispatch + nCommit + nSquash + nStallFlush + listTotal
			if st.litSeq, derr = decodeCol(st.litSeq, colSpan[colSeqs], needSeq); derr != nil {
				return totalCycles, decodeErr(derr, "trace: seqs column")
			}
			if st.litPC, derr = decodeCol(st.litPC, colSpan[colPCs], nFetch); derr != nil {
				return totalCycles, decodeErr(derr, "trace: pcs column")
			}
			if st.litPSV, derr = decodeCol(st.litPSV, colSpan[colPSVs], nCommit); derr != nil {
				return totalCycles, decodeErr(derr, "trace: psvs column")
			}

			// --- Pass C: materialize records and deliver them ---
			// Matched records copy from the materialized arrays (the
			// decoded pattern table); every record is delivered to the
			// probes the moment it materializes.
			st.mKind = st.mKind[:0]
			st.mCyc = st.mCyc[:0]
			st.mA = st.mA[:0]
			st.mB = st.mB[:0]
			st.mListStart = st.mListStart[:0]
			st.mLists = st.mLists[:0]
			var cK, cC, cS, cP, cV, cSt, cN int // literal-column cursors

			deliver := func(r int) error {
				records++
				if records&0xFFFF == 0 {
					if cause := context.Cause(ctx); cause != nil {
						return simerr.Wrap(simerr.ErrCanceled,
							simerr.Snapshot{Cycle: lastCycle, Seq: lastSeq}, cause, "replay canceled")
					}
				}
				kind := st.mKind[r]
				cycle := lastCycle + st.mCyc[r]
				lastCycle = cycle
				switch kind {
				case recFetch:
					seq := uint64(int64(lastSeq) + unzigzag(st.mA[r]))
					lastSeq = seq
					pc := uint64(int64(lastPC) + unzigzag(st.mB[r]))
					lastPC = pc
					if seq >= base {
						if seq-base >= maxWindow {
							return decodeErr(nil,
								"trace: implausible sequence jump to %d (window base %d)", seq, base)
						}
						// A re-fetch after a squash reuses the entry; the
						// fresh µop starts with an empty signature.
						*ensure(seq) = winEnt{pc: pc}
					}
					digest = mix(mix(mix(mix(digest, recFetch), seq), pc), cycle)
					rf := cpu.Ref{Seq: seq, PC: pc}
					for _, p := range probes {
						p.OnFetch(rf, cycle)
					}
				case recDispatch:
					seq := uint64(int64(lastSeq) + unzigzag(st.mA[r]))
					lastSeq = seq
					digest = mix(mix(mix(digest, recDispatch), seq), cycle)
					rf := ref(seq)
					for _, p := range probes {
						p.OnDispatch(rf, cycle)
					}
				case recCommit:
					seq := uint64(int64(lastSeq) + unzigzag(st.mA[r]))
					lastSeq = seq
					psv := st.mB[r]
					var rf cpu.Ref
					if seq >= base {
						if seq-base >= maxWindow {
							return decodeErr(nil,
								"trace: implausible sequence jump to %d (window base %d)", seq, base)
						}
						e := ensure(seq)
						e.psv = events.PSV(psv)
						e.committed = true
						rf = cpu.Ref{Seq: seq, PC: e.pc, PSV: e.psv}
					} else {
						rf = cpu.Ref{Seq: seq, PSV: events.PSV(psv)}
					}
					digest = mix(mix(mix(mix(digest, recCommit), seq), psv), cycle)
					for _, p := range probes {
						p.OnCommit(rf, cycle)
					}
					last = rf
				case recSquash:
					seq := uint64(int64(lastSeq) + unzigzag(st.mA[r]))
					lastSeq = seq
					digest = mix(mix(mix(digest, recSquash), seq), cycle)
					rf := ref(seq)
					for _, p := range probes {
						p.OnSquash(rf, cycle)
					}
				case recCycle:
					state := events.CommitState(st.mA[r])
					ci.Cycle = cycle
					ci.State = state
					ci.Committed = ci.Committed[:0]
					ci.Head = cpu.Ref{}
					ci.LastCommitted = cpu.Ref{}
					h := mix(mix(mix(digest, recCycle), cycle), uint64(state))
					switch state {
					case events.Compute:
						n := st.mB[r]
						h = mix(h, n)
						ls := int(st.mListStart[r])
						for k := 0; k < int(n); k++ {
							seq := uint64(int64(lastSeq) + unzigzag(st.mLists[ls+k]))
							lastSeq = seq
							h = mix(h, seq)
							ci.Committed = append(ci.Committed, ref(seq))
						}
					case events.Stalled:
						seq := uint64(int64(lastSeq) + unzigzag(st.mB[r]))
						lastSeq = seq
						h = mix(h, seq)
						ci.Head = ref(seq)
					case events.Flushed:
						seq := uint64(int64(lastSeq) + unzigzag(st.mB[r]))
						lastSeq = seq
						h = mix(h, seq)
						if last.Seq == seq {
							ci.LastCommitted = last
						} else {
							ci.LastCommitted = ref(seq)
						}
					case events.Drained:
						// No operand.
					}
					digest = h
					for _, p := range probes {
						p.OnCycle(ci)
					}
					// Slide the window past entries whose commit cycle has
					// now been delivered; nothing references them again
					// (Flushed cycles use last). The slide advances an
					// index instead of re-slicing so the pooled backing
					// array survives; the dead prefix is compacted once it
					// dominates the buffer.
					for head < len(win) && win[head].committed {
						head++
						base++
					}
					if head > 1024 && head*2 > len(win) {
						n := copy(win, win[head:])
						win = win[:n]
						head = 0
					}
				}
				return nil
			}

			r := 0
			for _, tk := range st.toks {
				if tk.dist == 0 {
					// Literal run: consume the columns in record order.
					for i := 0; i < int(tk.n); i++ {
						kind := litKind[cK]
						cK++
						st.mKind = append(st.mKind, kind)
						st.mCyc = append(st.mCyc, st.litCyc[cC])
						cC++
						st.mListStart = append(st.mListStart, uint32(len(st.mLists)))
						switch kind {
						case recFetch:
							st.mA = append(st.mA, st.litSeq[cS])
							cS++
							st.mB = append(st.mB, st.litPC[cP])
							cP++
						case recDispatch, recSquash:
							st.mA = append(st.mA, st.litSeq[cS])
							cS++
							st.mB = append(st.mB, 0)
						case recCommit:
							st.mA = append(st.mA, st.litSeq[cS])
							cS++
							st.mB = append(st.mB, st.litPSV[cV])
							cV++
						case recCycle:
							state := events.CommitState(litState[cSt])
							cSt++
							st.mA = append(st.mA, uint64(state))
							switch state {
							case events.Compute:
								n := st.litCount[cN]
								cN++
								st.mB = append(st.mB, n)
								st.mListStart[len(st.mListStart)-1] = uint32(len(st.mLists))
								st.mLists = append(st.mLists, st.litSeq[cS:cS+int(n)]...)
								cS += int(n)
							case events.Stalled, events.Flushed:
								st.mB = append(st.mB, st.litSeq[cS])
								cS++
							default: // events.Drained
								st.mB = append(st.mB, 0)
							}
						}
						if err := deliver(r); err != nil {
							return totalCycles, err
						}
						r++
					}
					continue
				}
				// Match run: element-wise copy from dist records back —
				// self-overlapping matches replicate a short period, the
				// loop-body case.
				d := int(tk.dist)
				for i := 0; i < int(tk.n); i++ {
					src := r - d
					kind := st.mKind[src]
					st.mKind = append(st.mKind, kind)
					st.mCyc = append(st.mCyc, st.mCyc[src])
					st.mA = append(st.mA, st.mA[src])
					st.mB = append(st.mB, st.mB[src])
					st.mListStart = append(st.mListStart, uint32(len(st.mLists)))
					if kind == recCycle && events.CommitState(st.mA[src]) == events.Compute {
						n := int(st.mB[src])
						if len(st.mLists)+n > maxBlockLists {
							return totalCycles, decodeErr(nil,
								"trace: block commit lists exceed %d entries", maxBlockLists)
						}
						ls := int(st.mListStart[src])
						st.mLists = append(st.mLists, st.mLists[ls:ls+n]...)
					}
					if err := deliver(r); err != nil {
						return totalCycles, err
					}
					r++
				}
			}

		case recDone:
			totalCycles, err = u64()
			if err != nil {
				return totalCycles, decodeErr(err, "trace: done section")
			}
			digest = mix(mix(digest, recDone), totalCycles)
			want, err := u64()
			if err != nil {
				return totalCycles, decodeErr(err, "trace: integrity digest")
			}
			if want != digest {
				return totalCycles, decodeErr(nil,
					"trace: integrity digest mismatch (stream corrupted or records reordered)")
			}
			// Only a verified stream reaches the completion hooks, so a
			// corrupt trace can never materialize as a profile.
			for _, p := range probes {
				p.OnDone(totalCycles)
			}
			return totalCycles, nil

		default:
			return totalCycles, decodeErr(nil, "trace: unknown section tag %#x", tag)
		}
	}
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
