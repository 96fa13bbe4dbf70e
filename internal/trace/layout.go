package trace

import (
	"bytes"
	"context"
	"encoding/binary"

	"repro/internal/simerr"
)

// Span is one length-prefixed byte region inside a block: LenStart is
// the offset of the uvarint length prefix, [Start, End) the payload.
// The fault-injection harness targets both — corrupting a length
// prefix desynchronizes the block framing, corrupting the payload
// desynchronizes a column — and either must surface as ErrDecode.
type Span struct {
	LenStart int
	Start    int
	End      int
}

// BlockLayout is the structural shape of one columnar block.
type BlockLayout struct {
	Start     int // offset of the block tag byte
	Records   int // record count from the block header
	Tokens    int // token count from the block header
	TokenSpan Span
	Columns   [nCols]Span // indexed like colKinds..colCounts; named by ColumnNames
	End       int
}

// StreamLayout is the structural shape of a complete v4 stream: the
// header, every block, and the done section. It is a framing-level
// parse — token and column *contents* are not validated (ReplayBytes
// owns that), so chaos modes can locate regions to corrupt even in
// streams they have already damaged semantically.
type StreamLayout struct {
	HeaderEnd int
	Blocks    []BlockLayout
	DoneStart int
	DoneEnd   int
}

// ParseLayout walks a complete in-memory v4 stream structurally and
// returns the offsets of every block, token span, column, and the done
// section. Framing damage (bad magic, truncated lengths, spans past
// the buffer) fails with a typed simerr.ErrDecode.
func ParseLayout(data []byte) (*StreamLayout, error) {
	layoutErr := func(format string, args ...any) error {
		return simerr.New(simerr.ErrDecode, simerr.Snapshot{}, format, args...)
	}
	if len(data) < 5 || [4]byte(data[:4]) != magic || data[4] != FormatVersion {
		return nil, layoutErr("trace: bad header")
	}
	lay := &StreamLayout{HeaderEnd: 5}
	pos := 5
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	span := func() (Span, bool) {
		s := Span{LenStart: pos}
		l, ok := uv()
		if !ok || l > uint64(len(data)-pos) {
			return s, false
		}
		s.Start = pos
		pos += int(l)
		s.End = pos
		return s, true
	}
	for pos < len(data) {
		tag := data[pos]
		start := pos
		pos++
		switch tag {
		case blockTag:
			b := BlockLayout{Start: start}
			nRec, ok1 := uv()
			nTok, ok2 := uv()
			if !ok1 || !ok2 || nRec == 0 || nRec > maxBlockRecords || nTok > nRec {
				return nil, layoutErr("trace: malformed block header at offset %d", start)
			}
			b.Records, b.Tokens = int(nRec), int(nTok)
			var ok bool
			if b.TokenSpan, ok = span(); !ok {
				return nil, layoutErr("trace: truncated token span at offset %d", start)
			}
			for c := 0; c < nCols; c++ {
				if b.Columns[c], ok = span(); !ok {
					return nil, layoutErr("trace: truncated %s column at offset %d", ColumnNames[c], start)
				}
			}
			b.End = pos
			lay.Blocks = append(lay.Blocks, b)
		case recDone:
			if _, ok := uv(); !ok {
				return nil, layoutErr("trace: truncated done section at offset %d", start)
			}
			if _, ok := uv(); !ok {
				return nil, layoutErr("trace: truncated integrity digest at offset %d", start)
			}
			lay.DoneStart, lay.DoneEnd = start, pos
			return lay, nil
		default:
			return nil, layoutErr("trace: unknown section tag %#x at offset %d", tag, start)
		}
	}
	return nil, layoutErr("trace: no done section")
}

// RecordOffsets scans a complete in-memory trace and returns the byte
// offset of every structural boundary: the header end, then for each
// block its tag, token span, and column starts, and finally the done
// section. The fault-injection harness uses it to truncate or splice
// captures at exact structure boundaries; the fuzz seed corpus is built
// the same way. (Before v4 the stream had per-record boundaries; the
// columnar format's interesting corruption points are these instead.)
func RecordOffsets(data []byte) ([]int, error) {
	lay, err := ParseLayout(data)
	if err != nil {
		return nil, err
	}
	offsets := []int{lay.HeaderEnd}
	for _, b := range lay.Blocks {
		offsets = append(offsets, b.Start, b.TokenSpan.Start)
		for _, c := range b.Columns {
			offsets = append(offsets, c.Start)
		}
	}
	offsets = append(offsets, lay.DoneStart)
	return offsets, nil
}

// CodecStats describes one v4 stream for operators: its Counters,
// whose methods give its ratios, plus the per-column and
// per-record-kind breakdowns keyed by name.
// Produced by ScanStats and surfaced by `teatrace -stats`.
type CodecStats struct {
	Counters
	Columns     map[string]uint64 `json:"column_bytes"`
	Kinds       map[string]uint64 `json:"kind_records"`
	KindLogical map[string]uint64 `json:"kind_logical_bytes"`
}

// ScanStats replays a complete in-memory v4 stream (validating it end
// to end, digest included) into a fresh Writer and returns that
// writer's Counters, so the codec's accounting lives in the writer
// alone. Equal record sequences encode to identical bytes, so the
// re-encoding must reproduce data exactly: a stream that decodes but
// is not the writer's encoding of its records (an extra block
// boundary, trailing bytes) fails with a typed simerr.ErrDecode rather
// than reporting the counts of other bytes. A stream that fails
// replay fails ScanStats with the same typed error.
//
//tealint:ctxroot stats pass over an in-memory buffer, bounded by the buffer's length; nothing upstream to cancel it
func ScanStats(data []byte) (*CodecStats, error) {
	var buf bytes.Buffer
	buf.Grow(len(data))
	tw := NewWriter(&buf)
	if _, err := ReplayBytes(context.Background(), data, tw); err != nil {
		return nil, err
	}
	if !bytes.Equal(buf.Bytes(), data) {
		return nil, simerr.New(simerr.ErrDecode, simerr.Snapshot{},
			"trace: stream decodes but is not the canonical encoding of its records (re-encoded %d bytes, stream %d)",
			buf.Len(), len(data))
	}
	st := &CodecStats{
		Counters:    tw.Counters(),
		Columns:     make(map[string]uint64, nCols),
		Kinds:       make(map[string]uint64, nKinds),
		KindLogical: make(map[string]uint64, nKinds),
	}
	for c, name := range ColumnNames {
		st.Columns[name] = st.ColumnBytes[c]
	}
	for k, name := range KindNames {
		st.Kinds[name] = st.KindRecords[k]
		st.KindLogical[name] = st.KindBytes[k]
	}
	return st, nil
}
