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

// ReplayBytes feeds a complete in-memory trace to a set of probes,
// reconstructing the refs the live probes would have seen. The probes
// cannot tell replay from a live run: profiles built offline are
// identical to online ones (the paper's out-of-band host processing).
//
// This is the replay hot path. Decoding runs on slice cursors with
// pooled block/window state, so one replay performs no per-record reads
// and no per-record allocation beyond the pooled block scratch. The
// data is only read, never written: callers may replay the same shared
// bytes from many goroutines concurrently. Sequence numbers are dense
// and retire roughly in order, so in-flight instructions live in a
// small sliding window indexed by seq instead of a map. Committed
// entries are dropped from the window once their cycle record has been
// delivered; only the most recent committed instruction stays
// referenceable (Flushed cycles point at it). Squashed entries stay in
// place — the same sequence number is re-fetched later, which resets
// the entry, mirroring the fresh µop the live core allocates.
//
// Each block is materialized whole, then delivered in one loop, each
// hook only to the probes that use it (cpu.HookSet). A run of cycle
// records identical in delta space (see deliver) reaches the probes as
// one cpu.HookSet.Cycles call.
//
// The context is polled periodically; a cancelled replay returns
// simerr.ErrCanceled wrapping the context's cause before the probes'
// completion hooks fire, so no partial profile can be observed
// downstream. Every other failure — truncation, implausible operands,
// a malformed token or column, an integrity-digest mismatch — returns
// a typed *simerr.Error of kind simerr.ErrDecode with the failing
// record's position in its snapshot. Replay never panics on malformed
// input (FuzzReplay pins this).
func ReplayBytes(ctx context.Context, data []byte, probes ...cpu.Probe) (totalCycles uint64, err error) {
	r := &replayer{ctx: ctx, data: data, digest: digestOffset}
	if len(data) < 5 {
		return 0, r.decodeErr(io.ErrUnexpectedEOF, "trace: reading header")
	}
	if [4]byte(data[:4]) != magic {
		return 0, r.decodeErr(nil, "trace: bad magic")
	}
	if data[4] != FormatVersion {
		return 0, r.decodeErr(nil, "trace: unsupported version %d", data[4])
	}
	r.pos = 5
	for _, p := range probes {
		r.hooks.Add(p)
	}
	r.st = replayPool.Get().(*decodeState)
	r.win = r.st.win[:0]
	defer r.release()

	for {
		if cause := context.Cause(ctx); cause != nil {
			return totalCycles, r.canceled(cause)
		}
		if r.pos >= len(data) {
			return totalCycles, r.decodeErr(nil, "trace: truncated stream (no done section)")
		}
		tag := data[r.pos]
		r.pos++
		switch tag {
		case blockTag:
			n, err := r.block()
			if err != nil {
				return totalCycles, err
			}
			if err := r.deliver(n); err != nil {
				return totalCycles, err
			}

		case recDone:
			totalCycles, err = r.u64()
			if err != nil {
				return totalCycles, r.decodeErr(err, "trace: done section")
			}
			r.digest = mix(mix(r.digest, recDone), totalCycles)
			want, err := r.u64()
			if err != nil {
				return totalCycles, r.decodeErr(err, "trace: integrity digest")
			}
			if want != r.digest {
				return totalCycles, r.decodeErr(nil,
					"trace: integrity digest mismatch (stream corrupted or records reordered)")
			}
			// Only a verified stream reaches the completion hooks, so a
			// corrupt trace can never materialize as a profile.
			r.flushRun()
			r.hooks.Done(totalCycles)
			return totalCycles, nil

		default:
			return totalCycles, r.decodeErr(nil, "trace: unknown section tag %#x", tag)
		}
	}
}

// replayer is one replay's state: the stream cursor, the delta-decoding
// bases, the integrity digest, the sliding window of in-flight
// instructions, and the pending cycle run.
type replayer struct {
	ctx   context.Context
	data  []byte
	pos   int
	st    *decodeState
	hooks cpu.HookSet

	lastCycle, lastSeq, lastPC uint64
	records                    uint64
	digest                     uint64

	win  []winEnt
	head int     // index of the window's first live entry
	base uint64  // seq of win[head]
	last cpu.Ref // the most recently committed instruction

	// run is the number of cycles the pending run in st.ci stands for:
	// cycle records decoded but not yet delivered. 0 when none.
	run uint64
}

// release returns the pooled decode state.
func (r *replayer) release() {
	st := r.st
	st.win = r.win[:0]
	st.ci.Committed = st.ci.Committed[:0]
	st.ci.Head, st.ci.LastCommitted = cpu.Ref{}, cpu.Ref{}
	replayPool.Put(st)
}

// decodeErr returns a typed ErrDecode carrying the decode position.
func (r *replayer) decodeErr(cause error, format string, args ...any) error {
	snap := simerr.Snapshot{Cycle: r.lastCycle, Seq: r.lastSeq}
	snap.Detail = fmt.Sprintf("record %d", r.records)
	if cause != nil {
		return simerr.Wrap(simerr.ErrDecode, snap, cause, format, args...)
	}
	return simerr.New(simerr.ErrDecode, snap, format, args...)
}

func (r *replayer) canceled(cause error) error {
	return simerr.Wrap(simerr.ErrCanceled,
		simerr.Snapshot{Cycle: r.lastCycle, Seq: r.lastSeq}, cause, "replay canceled")
}

func (r *replayer) u64() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if n < 0 {
		return 0, errVarintOverflow
	}
	r.pos += n
	return v, nil
}

// ensure grows the window to cover seq and returns its entry. The
// caller checks the maxWindow guard first.
func (r *replayer) ensure(seq uint64) *winEnt {
	for uint64(len(r.win)-r.head) <= seq-r.base {
		r.win = append(r.win, winEnt{})
	}
	return &r.win[r.head+int(seq-r.base)]
}

// ref builds the value-typed view of seq; sequence numbers outside the
// window (malformed traces) synthesize a zero entry.
func (r *replayer) ref(seq uint64) cpu.Ref {
	if seq >= r.base && seq-r.base < uint64(len(r.win)-r.head) {
		e := &r.win[r.head+int(seq-r.base)]
		return cpu.Ref{Seq: seq, PC: e.pc, PSV: e.psv}
	}
	return cpu.Ref{Seq: seq}
}

// cycleRef is the ref a Stalled (head) or Flushed (last committed)
// cycle record names by seq.
func (r *replayer) cycleRef(state events.CommitState, seq uint64) cpu.Ref {
	if state == events.Flushed && r.last.Seq == seq {
		return r.last
	}
	return r.ref(seq)
}

// block parses the columnar block at r.pos and materializes its records
// into the decode state's delta-space arrays, returning their count.
// Matched records copy from the records before them (the decoded
// pattern table).
func (r *replayer) block() (int, error) {
	st := r.st
	// --- Block framing ---
	nRec64, err1 := r.u64()
	nTok64, err2 := r.u64()
	tokLen64, err3 := r.u64()
	if err := firstErr(err1, err2, err3); err != nil {
		return 0, r.decodeErr(err, "trace: block header")
	}
	if nRec64 == 0 || nRec64 > maxBlockRecords {
		return 0, r.decodeErr(nil, "trace: implausible block record count %d", nRec64)
	}
	if nTok64 == 0 || nTok64 > nRec64 {
		return 0, r.decodeErr(nil, "trace: implausible block token count %d", nTok64)
	}
	if tokLen64 > uint64(len(r.data)-r.pos) {
		return 0, r.decodeErr(io.ErrUnexpectedEOF, "trace: block token span")
	}
	nRec, nTok := int(nRec64), int(nTok64)
	tokens := r.data[r.pos : r.pos+int(tokLen64)]
	r.pos += int(tokLen64)
	var colSpan [nCols][]byte
	for c := 0; c < nCols; c++ {
		l, err := r.u64()
		if err != nil {
			return 0, r.decodeErr(err, "trace: %s column length", ColumnNames[c])
		}
		if l > uint64(len(r.data)-r.pos) {
			return 0, r.decodeErr(io.ErrUnexpectedEOF, "trace: %s column span", ColumnNames[c])
		}
		colSpan[c] = r.data[r.pos : r.pos+int(l)]
		r.pos += int(l)
	}

	// --- Pass A: token parse ---
	st.toks = st.toks[:0]
	tp := 0
	total, litN := 0, 0
	for k := 0; k < nTok; k++ {
		v, sz := binary.Uvarint(tokens[tp:])
		if sz <= 0 {
			return 0, r.decodeErr(io.ErrUnexpectedEOF, "trace: block token %d", k)
		}
		tp += sz
		l := v >> 1
		if l == 0 || l > maxBlockRecords || int(l) > nRec-total {
			return 0, r.decodeErr(nil, "trace: implausible token run length %d", l)
		}
		if v&1 == 1 {
			d, sz := binary.Uvarint(tokens[tp:])
			if sz <= 0 {
				return 0, r.decodeErr(io.ErrUnexpectedEOF, "trace: match distance (token %d)", k)
			}
			tp += sz
			if d == 0 || d > uint64(total) {
				return 0, r.decodeErr(nil,
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
		return 0, r.decodeErr(nil, "trace: tokens cover %d of %d records", total, nRec)
	}
	if tp != len(tokens) {
		return 0, r.decodeErr(errTrailing, "trace: block token span")
	}

	// --- Pass B: tight per-column literal decode ---
	litKind := colSpan[colKinds]
	if len(litKind) != litN {
		return 0, r.decodeErr(nil,
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
			return 0, r.decodeErr(nil, "trace: unknown record kind %#x", k)
		}
	}
	var derr error
	if st.litCyc, derr = decodeCol(st.litCyc, colSpan[colCycles], litN); derr != nil {
		return 0, r.decodeErr(derr, "trace: cycles column")
	}
	litState := colSpan[colStates]
	if len(litState) != nCycle {
		return 0, r.decodeErr(nil,
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
			return 0, r.decodeErr(nil, "trace: unknown commit state %d", s)
		}
	}
	if st.litCount, derr = decodeCol(st.litCount, colSpan[colCounts], nCompute); derr != nil {
		return 0, r.decodeErr(derr, "trace: counts column")
	}
	listTotal := 0
	for _, n := range st.litCount {
		if n > maxCommitPerCycle {
			return 0, r.decodeErr(nil, "trace: implausible commit count %d in one cycle", n)
		}
		listTotal += int(n)
		if listTotal > maxBlockLists {
			return 0, r.decodeErr(nil, "trace: block commit lists exceed %d entries", maxBlockLists)
		}
	}
	needSeq := nFetch + nDispatch + nCommit + nSquash + nStallFlush + listTotal
	if st.litSeq, derr = decodeCol(st.litSeq, colSpan[colSeqs], needSeq); derr != nil {
		return 0, r.decodeErr(derr, "trace: seqs column")
	}
	if st.litPC, derr = decodeCol(st.litPC, colSpan[colPCs], nFetch); derr != nil {
		return 0, r.decodeErr(derr, "trace: pcs column")
	}
	if st.litPSV, derr = decodeCol(st.litPSV, colSpan[colPSVs], nCommit); derr != nil {
		return 0, r.decodeErr(derr, "trace: psvs column")
	}

	// --- Pass C: materialize the block's records ---
	st.mKind = st.mKind[:0]
	st.mCyc = st.mCyc[:0]
	st.mA = st.mA[:0]
	st.mB = st.mB[:0]
	st.mListStart = st.mListStart[:0]
	st.mLists = st.mLists[:0]
	var cK, cC, cS, cP, cV, cSt, cN int // literal-column cursors
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
						st.mLists = append(st.mLists, st.litSeq[cS:cS+int(n)]...)
						cS += int(n)
					case events.Stalled, events.Flushed:
						st.mB = append(st.mB, st.litSeq[cS])
						cS++
					default: // events.Drained
						st.mB = append(st.mB, 0)
					}
				}
			}
			continue
		}
		// Match run: element-wise copy from dist records back —
		// self-overlapping matches replicate a short period, the
		// loop-body case.
		d := int(tk.dist)
		for i := 0; i < int(tk.n); i++ {
			src := len(st.mKind) - d
			kind := st.mKind[src]
			st.mKind = append(st.mKind, kind)
			st.mCyc = append(st.mCyc, st.mCyc[src])
			st.mA = append(st.mA, st.mA[src])
			st.mB = append(st.mB, st.mB[src])
			st.mListStart = append(st.mListStart, uint32(len(st.mLists)))
			if kind == recCycle && events.CommitState(st.mA[src]) == events.Compute {
				n := int(st.mB[src])
				if len(st.mLists)+n > maxBlockLists {
					return 0, r.decodeErr(nil, "trace: block commit lists exceed %d entries", maxBlockLists)
				}
				ls := int(st.mListStart[src])
				st.mLists = append(st.mLists, st.mLists[ls:ls+n]...)
			}
		}
	}
	return nRec, nil
}

// deliver hands the block's n materialized records to the probes, in
// one loop. A Stalled, Drained or Flushed cycle record becomes the
// pending run, and each following cycle record identical to it in
// delta space (cycle delta 1, the same state, a zero seq delta, no
// other record in between) only extends the run: it would rebuild the
// same CycleInfo one cycle later. Any other record delivers the pending
// run first, so no hook moves relative to another. The digest still
// folds every record.
func (r *replayer) deliver(n int) error {
	st := r.st
	ci := &st.ci
	for i := 0; i < n; i++ {
		r.records++
		if r.records&0xFFFF == 0 {
			if cause := context.Cause(r.ctx); cause != nil {
				return r.canceled(cause)
			}
		}
		kind := st.mKind[i]
		cycle := r.lastCycle + st.mCyc[i]
		r.lastCycle = cycle
		if kind == recCycle && r.run > 0 && st.mCyc[i] == 1 &&
			events.CommitState(st.mA[i]) == ci.State && st.mB[i] == 0 {
			h := mix(mix(mix(r.digest, recCycle), cycle), uint64(ci.State))
			if ci.State != events.Drained {
				h = mix(h, r.lastSeq)
			}
			r.digest = h
			r.run++
			continue
		}
		r.flushRun()
		switch kind {
		case recFetch:
			seq := uint64(int64(r.lastSeq) + unzigzag(st.mA[i]))
			r.lastSeq = seq
			pc := uint64(int64(r.lastPC) + unzigzag(st.mB[i]))
			r.lastPC = pc
			if seq >= r.base {
				if seq-r.base >= maxWindow {
					return r.decodeErr(nil,
						"trace: implausible sequence jump to %d (window base %d)", seq, r.base)
				}
				// A re-fetch after a squash reuses the entry; the fresh
				// µop starts with an empty signature.
				*r.ensure(seq) = winEnt{pc: pc}
			}
			r.digest = mix(mix(mix(mix(r.digest, recFetch), seq), pc), cycle)
			r.hooks.Fetch(cpu.Ref{Seq: seq, PC: pc}, cycle)
		case recDispatch:
			seq := uint64(int64(r.lastSeq) + unzigzag(st.mA[i]))
			r.lastSeq = seq
			r.digest = mix(mix(mix(r.digest, recDispatch), seq), cycle)
			r.hooks.Dispatch(r.ref(seq), cycle)
		case recCommit:
			seq := uint64(int64(r.lastSeq) + unzigzag(st.mA[i]))
			r.lastSeq = seq
			psv := st.mB[i]
			var rf cpu.Ref
			if seq >= r.base {
				if seq-r.base >= maxWindow {
					return r.decodeErr(nil,
						"trace: implausible sequence jump to %d (window base %d)", seq, r.base)
				}
				e := r.ensure(seq)
				e.psv = events.PSV(psv)
				e.committed = true
				rf = cpu.Ref{Seq: seq, PC: e.pc, PSV: e.psv}
			} else {
				rf = cpu.Ref{Seq: seq, PSV: events.PSV(psv)}
			}
			r.digest = mix(mix(mix(mix(r.digest, recCommit), seq), psv), cycle)
			r.hooks.Commit(rf, cycle)
			r.last = rf
		case recSquash:
			seq := uint64(int64(r.lastSeq) + unzigzag(st.mA[i]))
			r.lastSeq = seq
			r.digest = mix(mix(mix(r.digest, recSquash), seq), cycle)
			r.hooks.Squash(r.ref(seq), cycle)
		case recCycle:
			r.cycleRecord(i, cycle)
		}
	}
	return nil
}

// cycleRecord decodes block record i, a cycle record that does not
// extend the pending run, into st.ci. A Compute cycle is delivered at
// once; any other becomes the pending run.
func (r *replayer) cycleRecord(i int, cycle uint64) {
	st := r.st
	ci := &st.ci
	state := events.CommitState(st.mA[i])
	ci.Cycle = cycle
	ci.State = state
	ci.Committed = ci.Committed[:0]
	ci.Head = cpu.Ref{}
	ci.LastCommitted = cpu.Ref{}
	h := mix(mix(mix(r.digest, recCycle), cycle), uint64(state))
	var seq uint64
	var named cpu.Ref
	switch state {
	case events.Compute:
		n := st.mB[i]
		h = mix(h, n)
		ls := int(st.mListStart[i])
		for k := 0; k < int(n); k++ {
			seq := uint64(int64(r.lastSeq) + unzigzag(st.mLists[ls+k]))
			r.lastSeq = seq
			h = mix(h, seq)
			ci.Committed = append(ci.Committed, r.ref(seq))
		}
	case events.Stalled, events.Flushed:
		seq = uint64(int64(r.lastSeq) + unzigzag(st.mB[i]))
		r.lastSeq = seq
		h = mix(h, seq)
		named = r.cycleRef(state, seq)
		if state == events.Stalled {
			ci.Head = named
		} else {
			ci.LastCommitted = named
		}
	case events.Drained:
		// No operand.
	}
	r.digest = h
	// Slide the window past entries whose commit cycle has now been
	// decoded; nothing references them again (Flushed cycles use last).
	// The slide advances an index instead of re-slicing so the pooled
	// backing array survives; the dead prefix is compacted once it
	// dominates the buffer.
	for r.head < len(r.win) && r.win[r.head].committed {
		r.head++
		r.base++
	}
	if r.head > 1024 && r.head*2 > len(r.win) {
		n := copy(r.win, r.win[r.head:])
		r.win = r.win[:n]
		r.head = 0
	}
	// A run starts only where a later identical record would name the
	// same ref: in a malformed stream the slide can drop the entry a
	// Stalled or Flushed record names.
	if state == events.Compute || (state != events.Drained && r.cycleRef(state, seq) != named) {
		r.hooks.Cycles(ci, 1)
		return
	}
	r.run = 1
}

// flushRun delivers the pending run, if any.
func (r *replayer) flushRun() {
	if r.run > 0 {
		r.hooks.Cycles(&r.st.ci, r.run)
		r.run = 0
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
