package trace_test

// Codec benchmarks: the committed before/after evidence for trace
// format v4 (`make bench-codec` -> BENCH_<date>_codec.json, gated by
// `teadiff -mode bench` against the committed baseline). Encode and
// decode run over a pre-recorded logical event sequence, so the
// numbers measure the codecs alone — no simulation in the timed loop.
// The v3 columns come from the legacy codec copy in v3codec_test.go.
//
// ns/op is the wall-clock story (machine-dependent, reported but never
// gated); the byte totals, record counts, and digest halves are
// deterministic and must be bit-identical run to run.

import (
	"bytes"
	"context"
	"testing"

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

func benchLog(b *testing.B) *eventLog {
	b.Helper()
	if cachedLog != nil {
		return cachedLog
	}
	w, err := workloads.ByName("bwaves")
	if err != nil {
		b.Fatal(err)
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
	ctr := tw.Counters()
	b.ReportMetric(float64(buf.Len()), "encoded_bytes")
	b.ReportMetric(float64(tw.Records), "records")
	b.ReportMetric(float64(ctr.LogicalBytes)/float64(ctr.EncodedBytes), "compression_x")
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
	b.ReportMetric(float64(len(tw.Bytes())), "encoded_bytes")
	b.ReportMetric(float64(tw.records), "records")
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
	b.ReportMetric(float64(cycles), "cycles")
	b.ReportMetric(float64(tw.Records)/1e6, "mrecords")
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
	b.ReportMetric(float64(cycles), "cycles")
	b.ReportMetric(float64(tw.records)/1e6, "mrecords")
}

// BenchmarkCodecSuiteCompression captures every suite workload with
// both writers attached to one simulation and reports the suite byte
// totals — the ISSUE 10 acceptance evidence (>=5x). The FNV halves of
// the v4 bytes pin the exact encoding: equal halves on two runs (or
// against the committed baseline) mean byte-identical suite traces.
func BenchmarkCodecSuiteCompression(b *testing.B) {
	var v3Bytes, v4Bytes, cycles, digest uint64
	for i := 0; i < b.N; i++ {
		v3Bytes, v4Bytes, cycles = 0, 0, 0
		digest = 14695981039346656037 // FNV-1a offset basis
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
				b.Fatal(err)
			}
			v3Bytes += uint64(len(v3.Bytes()))
			v4Bytes += uint64(buf.Len())
			cycles += st.Cycles
			for _, by := range buf.Bytes() {
				digest = (digest ^ uint64(by)) * 1099511628211
			}
		}
	}
	b.ReportMetric(float64(v3Bytes), "suite_v3_bytes")
	b.ReportMetric(float64(v4Bytes), "suite_v4_bytes")
	b.ReportMetric(float64(v3Bytes)/float64(v4Bytes), "compression_x")
	b.ReportMetric(float64(v4Bytes)/float64(cycles), "trace_bytes/cycle")
	// Two exact-in-float64 halves of the 64-bit digest.
	b.ReportMetric(float64(digest>>32), "trace_fnv_hi")
	b.ReportMetric(float64(digest&0xffffffff), "trace_fnv_lo")
}

// nopProbe absorbs every probe hook.
type nopProbe struct{}

func (nopProbe) OnFetch(cpu.Ref, uint64)    {}
func (nopProbe) OnDispatch(cpu.Ref, uint64) {}
func (nopProbe) OnCommit(cpu.Ref, uint64)   {}
func (nopProbe) OnSquash(cpu.Ref, uint64)   {}
func (nopProbe) OnCycle(*cpu.CycleInfo)     {}
func (nopProbe) OnDone(uint64)              {}
