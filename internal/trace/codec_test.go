package trace

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/simerr"
	"repro/internal/workloads"
)

// captureStream records one workload run and returns the encoded
// stream plus the writer for its counters.
func captureStream(t *testing.T, bench string, iters int) ([]byte, *Writer) {
	t.Helper()
	w, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.DefaultConfig(), w.Build(iters))
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	c.Attach(tw)
	c.Run()
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tw
}

// TestParseLayoutCoversStream checks that the structural walk accounts
// for every byte: header, then blocks back to back, then the done
// section ending exactly at the stream's end, with each block's token
// span and columns nested inside the block in declaration order.
func TestParseLayoutCoversStream(t *testing.T) {
	data, _ := captureStream(t, "bwaves", 6)
	lay, err := ParseLayout(data)
	if err != nil {
		t.Fatal(err)
	}
	if lay.HeaderEnd != 5 {
		t.Errorf("header end %d, want 5", lay.HeaderEnd)
	}
	if len(lay.Blocks) == 0 {
		t.Fatal("no blocks parsed")
	}
	pos := lay.HeaderEnd
	for i, b := range lay.Blocks {
		if b.Start != pos {
			t.Errorf("block %d starts at %d, want %d (blocks must be contiguous)", i, b.Start, pos)
		}
		if b.TokenSpan.Start <= b.Start || b.TokenSpan.End > b.End {
			t.Errorf("block %d token span [%d,%d) outside block [%d,%d)",
				i, b.TokenSpan.Start, b.TokenSpan.End, b.Start, b.End)
		}
		prevEnd := b.TokenSpan.End
		for ci, col := range b.Columns {
			if col.LenStart != prevEnd {
				t.Errorf("block %d column %s starts at %d, want %d (columns must be contiguous)",
					i, ColumnNames[ci], col.LenStart, prevEnd)
			}
			prevEnd = col.End
		}
		if prevEnd != b.End {
			t.Errorf("block %d last column ends at %d, block ends at %d", i, prevEnd, b.End)
		}
		pos = b.End
	}
	if lay.DoneStart != pos {
		t.Errorf("done section starts at %d, want %d", lay.DoneStart, pos)
	}
	if lay.DoneEnd != len(data) {
		t.Errorf("done section ends at %d, stream is %d bytes", lay.DoneEnd, len(data))
	}
}

// TestScanStatsMatchesCounters checks that the per-column and per-kind
// breakdowns sum to their totals, and that the byte counts agree with
// the stream's structural layout.
func TestScanStatsMatchesCounters(t *testing.T) {
	data, _ := captureStream(t, "lbm", 8)
	st, err := ScanStats(data)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := ParseLayout(data)
	if err != nil {
		t.Fatal(err)
	}
	if int(st.EncodedBytes) != len(data) {
		t.Errorf("encoded bytes %d, stream is %d bytes", st.EncodedBytes, len(data))
	}
	if int(st.Blocks) != len(lay.Blocks) {
		t.Errorf("blocks %d, layout has %d", st.Blocks, len(lay.Blocks))
	}

	var kindRecords, kindBytes uint64
	for i, name := range KindNames {
		if st.Kinds[name] != st.KindRecords[i] || st.KindLogical[name] != st.KindBytes[i] {
			t.Errorf("kind %s: map %d records %d bytes, array %d records %d bytes",
				name, st.Kinds[name], st.KindLogical[name], st.KindRecords[i], st.KindBytes[i])
		}
		kindRecords += st.KindRecords[i]
		kindBytes += st.KindBytes[i]
	}
	if kindRecords != st.Records-1 { // the done section has no kind
		t.Errorf("per-kind records sum to %d, %d counted incl. done", kindRecords, st.Records)
	}
	// Logical = header + every block record's v3 size + the done
	// section, which both formats encode alike.
	if done := uint64(lay.DoneEnd - lay.DoneStart); 5+kindBytes+done != st.LogicalBytes {
		t.Errorf("header + per-kind bytes %d + done %d = %d, logical total %d",
			kindBytes, done, 5+kindBytes+done, st.LogicalBytes)
	}

	var colBytes, spanBytes uint64
	for i, name := range ColumnNames {
		if st.Columns[name] != st.ColumnBytes[i] {
			t.Errorf("column %s: map %d, array %d", name, st.Columns[name], st.ColumnBytes[i])
		}
		colBytes += st.ColumnBytes[i]
	}
	for _, b := range lay.Blocks {
		spanBytes += uint64(b.TokenSpan.End - b.TokenSpan.Start)
		for _, c := range b.Columns {
			spanBytes += uint64(c.End - c.Start)
		}
	}
	if colBytes+st.TokenBytes != spanBytes {
		t.Errorf("columns (%d) + tokens (%d) = %d, layout spans hold %d",
			colBytes, st.TokenBytes, colBytes+st.TokenBytes, spanBytes)
	}
	if hr := st.PatternHitRate(); hr < 0 || hr > 1 {
		t.Errorf("pattern hit rate %v out of [0,1]", hr)
	}
	if st.CompressionRatio() <= 1 {
		t.Errorf("compression ratio %.2f, want > 1 on a loop workload", st.CompressionRatio())
	}
}

// TestScanStatsRejectsNonCanonical re-encodes a capture with one extra
// block boundary forced mid-stream. The result still verifies, because
// the digest covers logical values only, but it is not the writer's
// encoding of its records, so ScanStats must fail it typed rather than
// report the counts of other bytes.
func TestScanStatsRejectsNonCanonical(t *testing.T) {
	data, tw := captureStream(t, "lbm", 8)
	var buf bytes.Buffer
	split := NewWriter(&buf)
	at := splitAt{w: split, cycle: tw.Counters().TotalCycles / 2}
	if _, err := ReplayBytes(context.Background(), data, split, at); err != nil {
		t.Fatal(err)
	}
	if split.Counters().Blocks != tw.Counters().Blocks+1 {
		t.Fatalf("forced boundary: %d blocks, capture has %d", split.Counters().Blocks, tw.Counters().Blocks)
	}
	if err := Verify(buf.Bytes()); err != nil {
		t.Fatalf("split stream does not verify: %v", err)
	}
	if _, err := ScanStats(buf.Bytes()); !errors.Is(err, simerr.ErrDecode) {
		t.Fatalf("ScanStats on a non-canonical stream: %v, want ErrDecode", err)
	}
}

// splitAt closes w's current block after w has taken the given cycle's
// record; attached after w, it sees each cycle once w has (and, when
// replay delivers the cycle inside a run, once w has taken the run).
type splitAt struct {
	cpu.BaseProbe
	w     *Writer
	cycle uint64
}

func (s splitAt) OnCycle(ci *cpu.CycleInfo) {
	if ci.Cycle == s.cycle {
		s.w.flushBlock()
	}
}

// TestReplayMatchesWriterDigest checks the window-independence of the
// integrity digest directly: the decoder accepts the stream (digest
// verified internally) and reports the writer's cycle count.
func TestReplayMatchesWriterDigest(t *testing.T) {
	data, tw := captureStream(t, "mcf", 6)
	var last uint64
	got, err := ReplayBytes(context.Background(), data, probeFunc(func(cycle uint64) { last = cycle }))
	if err != nil {
		t.Fatal(err)
	}
	if got != last {
		t.Errorf("replay returned %d cycles, OnDone saw %d", got, last)
	}
	if tw.Counters().Records == 0 {
		t.Fatal("writer recorded nothing")
	}
}

// probeFunc adapts a done callback into a cpu.Probe.
type probeFunc func(totalCycles uint64)

func (probeFunc) OnFetch(cpu.Ref, uint64)    {}
func (probeFunc) OnDispatch(cpu.Ref, uint64) {}
func (probeFunc) OnCommit(cpu.Ref, uint64)   {}
func (probeFunc) OnSquash(cpu.Ref, uint64)   {}
func (probeFunc) OnCycle(*cpu.CycleInfo)     {}
func (f probeFunc) OnDone(c uint64)          { f(c) }

// TestCountersAddSumsStreams folds two captures' accounts together:
// every field and array element sums (walked by reflection, so a field
// Add forgets fails here), Streams counts the two done sections, and
// the hit rate of the sum is taken over block records only.
func TestCountersAddSumsStreams(t *testing.T) {
	_, wa := captureStream(t, "bwaves", 300)
	_, wb := captureStream(t, "mcf", 300)
	a, b := wa.Counters(), wb.Counters()
	var sum Counters
	sum.Add(a)
	sum.Add(b)

	va, vb, vs := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(sum)
	for i := 0; i < vs.NumField(); i++ {
		name := vs.Type().Field(i).Name
		switch f := vs.Field(i); f.Kind() {
		case reflect.Uint64:
			if got, want := f.Uint(), va.Field(i).Uint()+vb.Field(i).Uint(); got != want {
				t.Errorf("%s: sum %d, want %d", name, got, want)
			}
		case reflect.Array:
			for k := 0; k < f.Len(); k++ {
				if got, want := f.Index(k).Uint(), va.Field(i).Index(k).Uint()+vb.Field(i).Index(k).Uint(); got != want {
					t.Errorf("%s[%d]: sum %d, want %d", name, k, got, want)
				}
			}
		default:
			t.Errorf("%s: field of kind %s not covered", name, f.Kind())
		}
	}
	if sum.Streams != 2 {
		t.Errorf("Streams %d, want 2", sum.Streams)
	}
	if got, want := sum.PatternHitRate(), float64(sum.MatchedRecords)/float64(sum.Records-2); got != want {
		t.Errorf("PatternHitRate %v, want MatchedRecords/(Records-Streams) = %v", got, want)
	}
}

// TestWriterHitRateMatchesScanStats: for one stream, the writer's own
// pattern hit rate is the one ScanStats (`teatrace -stats`) reports.
func TestWriterHitRateMatchesScanStats(t *testing.T) {
	data, tw := captureStream(t, "bwaves", 300)
	st, err := ScanStats(data)
	if err != nil {
		t.Fatal(err)
	}
	if c := tw.Counters(); c.Streams != 1 || c.BlockRecords() != c.Records-1 {
		t.Errorf("one stream: Streams %d, BlockRecords %d of %d records", c.Streams, c.BlockRecords(), c.Records)
	}
	if got, want := tw.Counters().PatternHitRate(), st.PatternHitRate(); got != want || got == 0 {
		t.Errorf("writer hit rate %v, ScanStats %v", got, want)
	}
}
