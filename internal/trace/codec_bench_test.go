package trace_test

// Codec benchmarks: the evidence for trace format v4 against the v3
// codec copy in v3codec_test.go. Encode and decode run over a
// pre-recorded logical event sequence, so the numbers measure the
// codecs alone — no simulation in the timed loop.
//
// ns/op is the wall-clock story (machine-dependent, never gated); the
// byte totals, record counts, and digest halves are deterministic, and
// TestCodecNumbers pins them against the committed
// BENCH_2026-08-08_codec.json.

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/benchfile"
	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// logEvent is one recorded probe call; kind 0x05 carries the cycle
// info, everything else the (ref, cycle) pair.
type logEvent struct {
	kind  byte
	r     cpu.Ref
	cycle uint64
	ci    cpu.CycleInfo
}

// eventLog captures a workload's probe event sequence once, so encode
// benchmarks can replay it into fresh writers without re-simulating.
type eventLog struct {
	cpu.BaseProbe
	evs   []logEvent
	total uint64
}

func (l *eventLog) OnFetch(r cpu.Ref, cycle uint64) {
	l.evs = append(l.evs, logEvent{kind: 0x01, r: r, cycle: cycle})
}
func (l *eventLog) OnDispatch(r cpu.Ref, cycle uint64) {
	l.evs = append(l.evs, logEvent{kind: 0x02, r: r, cycle: cycle})
}
func (l *eventLog) OnCommit(r cpu.Ref, cycle uint64) {
	l.evs = append(l.evs, logEvent{kind: 0x03, r: r, cycle: cycle})
}
func (l *eventLog) OnSquash(r cpu.Ref, cycle uint64) {
	l.evs = append(l.evs, logEvent{kind: 0x04, r: r, cycle: cycle})
}
func (l *eventLog) OnCycle(ci *cpu.CycleInfo) {
	cp := *ci
	cp.Committed = append([]cpu.Ref(nil), ci.Committed...)
	l.evs = append(l.evs, logEvent{kind: 0x05, ci: cp})
}
func (l *eventLog) OnDone(totalCycles uint64) { l.total = totalCycles }

// play delivers the recorded sequence to a probe. The cycle info is
// copied into one variable declared outside the loop: its address
// crosses the cpu.Probe interface, so it escapes, and a per-cycle copy
// would put one heap allocation per cycle into the codec's numbers.
func (l *eventLog) play(p cpu.Probe) {
	var ci cpu.CycleInfo
	for i := range l.evs {
		e := &l.evs[i]
		switch e.kind {
		case 0x01:
			p.OnFetch(e.r, e.cycle)
		case 0x02:
			p.OnDispatch(e.r, e.cycle)
		case 0x03:
			p.OnCommit(e.r, e.cycle)
		case 0x04:
			p.OnSquash(e.r, e.cycle)
		case 0x05:
			ci = e.ci
			p.OnCycle(&ci)
		}
	}
	p.OnDone(l.total)
}

// benchLog simulates the benchmark workload once per process and
// caches the event sequence.
var cachedLog *eventLog

func benchLog(tb testing.TB) *eventLog {
	tb.Helper()
	if cachedLog != nil {
		return cachedLog
	}
	w, err := workloads.ByName("bwaves")
	if err != nil {
		tb.Fatal(err)
	}
	l := &eventLog{}
	c := cpu.New(cpu.DefaultConfig(), w.Build(1500))
	c.Attach(l)
	c.Run()
	cachedLog = l
	return l
}

// BenchmarkCodecEncodeV4 encodes the recorded event sequence with the
// v4 columnar writer.
func BenchmarkCodecEncodeV4(b *testing.B) {
	l := benchLog(b)
	var buf bytes.Buffer
	var tw *trace.Writer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		tw = trace.NewWriter(&buf)
		l.play(tw)
		if err := tw.Err(); err != nil {
			b.Fatal(err)
		}
	}
	reportMetrics(b, encodeV4Metrics(&buf, tw))
}

// BenchmarkCodecEncodeV3 encodes the same sequence with the legacy
// record-at-a-time writer.
func BenchmarkCodecEncodeV3(b *testing.B) {
	l := benchLog(b)
	var tw *v3Writer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw = newV3Writer()
		l.play(tw)
	}
	reportMetrics(b, encodeV3Metrics(tw))
}

// BenchmarkCodecDecodeV4 replays a v4 stream of the recorded sequence
// into a no-op probe: the codec's decode throughput, the number the
// replay-heavy analyze-many workflows are bounded by.
func BenchmarkCodecDecodeV4(b *testing.B) {
	l := benchLog(b)
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	l.play(tw)
	if err := tw.Err(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	ctx := context.Background()
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		cycles, err = trace.ReplayBytes(ctx, data, nopProbe{})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMetrics(b, decodeMetrics(cycles, tw.Records))
}

// BenchmarkCodecDecodeV3 replays the legacy encoding of the same
// sequence — the decode-throughput floor v4 must not sink below.
func BenchmarkCodecDecodeV3(b *testing.B) {
	l := benchLog(b)
	tw := newV3Writer()
	l.play(tw)
	data := tw.Bytes()
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		cycles, err = v3ReplayBytes(data, nopProbe{})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMetrics(b, decodeMetrics(cycles, tw.records))
}

// BenchmarkCodecSuiteCompression captures every suite workload with
// both writers attached to one simulation and reports the suite byte
// totals.
func BenchmarkCodecSuiteCompression(b *testing.B) {
	var m map[string]float64
	for i := 0; i < b.N; i++ {
		var err error
		if m, err = suiteCompression(); err != nil {
			b.Fatal(err)
		}
	}
	reportMetrics(b, m)
}

// suiteCompression captures every workload at a quarter of its default
// iterations with the v4 and v3 writers on one simulation. The FNV-1a
// halves of the v4 bytes are exact in float64, so equal halves mean
// byte-identical suite traces.
func suiteCompression() (map[string]float64, error) {
	var v3Bytes, v4Bytes, cycles uint64
	digest := uint64(14695981039346656037) // FNV-1a offset basis
	for _, w := range workloads.All() {
		iters := w.DefaultIters / 4
		if iters < 2 {
			iters = 2
		}
		c := cpu.New(cpu.DefaultConfig(), w.Build(iters))
		var buf bytes.Buffer
		v4 := trace.NewWriter(&buf)
		v3 := newV3Writer()
		c.Attach(v4)
		c.Attach(v3)
		st := c.Run()
		if err := v4.Err(); err != nil {
			return nil, err
		}
		v3Bytes += uint64(len(v3.Bytes()))
		v4Bytes += uint64(buf.Len())
		cycles += st.Cycles
		for _, by := range buf.Bytes() {
			digest = (digest ^ uint64(by)) * 1099511628211
		}
	}
	return map[string]float64{
		"suite_v3_bytes":    float64(v3Bytes),
		"suite_v4_bytes":    float64(v4Bytes),
		"compression_x":     float64(v3Bytes) / float64(v4Bytes),
		"trace_bytes/cycle": float64(v4Bytes) / float64(cycles),
		"trace_fnv_hi":      float64(digest >> 32),
		"trace_fnv_lo":      float64(digest & 0xffffffff),
	}, nil
}

// encodeV4Metrics are CodecEncodeV4's metrics for the stream tw wrote
// into buf.
func encodeV4Metrics(buf *bytes.Buffer, tw *trace.Writer) map[string]float64 {
	ctr := tw.Counters()
	return map[string]float64{
		"encoded_bytes": float64(buf.Len()),
		"records":       float64(tw.Records),
		"compression_x": float64(ctr.LogicalBytes) / float64(ctr.EncodedBytes),
	}
}

func encodeV3Metrics(tw *v3Writer) map[string]float64 {
	return map[string]float64{
		"encoded_bytes": float64(len(tw.Bytes())),
		"records":       float64(tw.records),
	}
}

func decodeMetrics(cycles, records uint64) map[string]float64 {
	return map[string]float64{
		"cycles":   float64(cycles),
		"mrecords": float64(records) / 1e6,
	}
}

func reportMetrics(b *testing.B, m map[string]float64) {
	for unit, v := range m {
		b.ReportMetric(v, unit)
	}
}

// TestCodecNumbers recomputes every metric of the committed codec BENCH
// file from the codec benchmarks' fixtures, each encoded and decoded
// once, and requires each to print exactly as recorded. Drift means the
// wire format changed; a deliberate change bumps trace.FormatVersion
// and edits the file by hand.
func TestCodecNumbers(t *testing.T) {
	l := benchLog(t)
	ctx := context.Background()
	got := map[string]map[string]float64{}

	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	l.play(tw)
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	got["CodecEncodeV4"] = encodeV4Metrics(&buf, tw)
	cycles, err := trace.ReplayBytes(ctx, buf.Bytes(), nopProbe{})
	if err != nil {
		t.Fatal(err)
	}
	got["CodecDecodeV4"] = decodeMetrics(cycles, tw.Records)

	v3 := newV3Writer()
	l.play(v3)
	got["CodecEncodeV3"] = encodeV3Metrics(v3)
	if cycles, err = v3ReplayBytes(v3.Bytes(), nopProbe{}); err != nil {
		t.Fatal(err)
	}
	got["CodecDecodeV3"] = decodeMetrics(cycles, v3.records)

	if got["CodecSuiteCompression"], err = suiteCompression(); err != nil {
		t.Fatal(err)
	}

	msgs, err := benchfile.Drift("../../BENCH_2026-08-08_codec.json", got)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		t.Error(m)
	}
}

// nopProbe absorbs every probe hook.
type nopProbe struct{}

func (nopProbe) OnFetch(cpu.Ref, uint64)    {}
func (nopProbe) OnDispatch(cpu.Ref, uint64) {}
func (nopProbe) OnCommit(cpu.Ref, uint64)   {}
func (nopProbe) OnSquash(cpu.Ref, uint64)   {}
func (nopProbe) OnCycle(*cpu.CycleInfo)     {}
func (nopProbe) OnDone(uint64)              {}
