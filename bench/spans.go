package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one serve job
// share the job's span as their ancestor.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// job names the server job a journal span belongs to; it becomes
	// Parent once the job's span is known (the submitted record is
	// journaled before the client learns the job's ID).
	job string
}

// tracer holds a traced run's spans in memory until the run writes them
// out. A nil *tracer records nothing: untraced runs pass nil.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
	jobs  map[string]uint64 // server job ID -> the client's job span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), jobs: map[string]uint64{}}
}

// id reserves a span ID, so children can name a parent that ends later.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records the span id (from t.id) that covers [start, end).
func (t *tracer) add(id, parent uint64, op, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// addJob records a span that belongs to the server job jobID.
func (t *tracer) addJob(jobID, op, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: t.next.Add(1), Op: op, Name: name, job: jobID,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// bindJob makes spanID the parent of every span of server job jobID.
func (t *tracer) bindJob(jobID string, spanID uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs[jobID] = spanID
}

// timed runs fn inside a span and returns fn's error.
func (t *tracer) timed(parent uint64, op, name string, fn func(id uint64) error) error {
	id := t.id()
	start := time.Now()
	err := fn(id)
	t.add(id, parent, op, name, start, time.Now())
	return err
}

// resolved returns the spans with journal spans attached to their jobs.
func (t *tracer) resolved() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if out[i].job != "" {
			out[i].Parent = t.jobs[out[i].job]
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// write saves the spans as one JSON document at path.
func (t *tracer) write(path string, o options) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{o.workload, o.seed, t.resolved()}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// spanPath is where a traced run writes its spans.
func spanPath(o options) string {
	if o.spans != "" {
		return o.spans
	}
	return filepath.Join(os.TempDir(), fmt.Sprintf("teabench-spans-%s-seed%d.json", o.workload, o.seed))
}

// selfStat is the self time of every span of one op.
type selfStat struct {
	op    string
	count int
	self  time.Duration
}

// selfTimes sums each op's self time: a span's duration minus the part
// of it that its children cover.
func selfTimes(spans []span) []selfStat {
	kids := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byOp := map[string]*selfStat{}
	var ops []string
	for _, s := range spans {
		st := byOp[s.Op]
		if st == nil {
			st = &selfStat{op: s.Op}
			byOp[s.Op] = st
			ops = append(ops, s.Op)
		}
		st.count++
		st.self += time.Duration(s.End - s.Start - covered(s.Start, s.End, kids[s.ID]))
	}
	out := make([]selfStat, 0, len(ops))
	for _, op := range ops {
		out = append(out, *byOp[op])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of [start, end) the intervals cover.
func covered(start, end int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], start), min(iv[1], end)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, reach int64 = 0, start
	for _, iv := range clipped {
		a := max(iv[0], reach)
		if iv[1] > a {
			total += iv[1] - a
			reach = iv[1]
		}
	}
	return total
}

// finishTrace writes the span file and prints the self-time table.
func finishTrace(w io.Writer, t *tracer, o options) error {
	path := spanPath(o)
	if err := t.write(path, o); err != nil {
		return err
	}
	spans := t.resolved()
	fmt.Fprintf(w, "spans: %d written to %s\n", len(spans), path)
	for _, st := range selfTimes(spans) {
		fmt.Fprintf(w, "self %-28s %8d spans %12.3f ms\n", st.op, st.count, ms(st.self))
	}
	return nil
}
