package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/serve"
)

// TestCanceledQueuedJobRetention: a job canceled while queued is
// terminal like any other, so it joins the finished-job ring and is
// evicted once KeepFinished newer terminal jobs follow it.
func TestCanceledQueuedJobRetention(t *testing.T) {
	s, err := serve.New(serve.Config{Workers: 1, KeepFinished: 2})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	ts := &testServer{srv: s, http: hs}

	canceled := submit(t, ts, `{"workload":"mcf","config":{"scale":0.05}}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.url("/v1/jobs/"+canceled), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: got %d, want 202", resp.StatusCode)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		s.Run(ctx)
		close(done)
	}()
	defer func() {
		cancel()
		<-done
	}()
	if view := await(t, ts, canceled); view.Status != serve.StatusCanceled {
		t.Fatalf("got status %s, want canceled", view.Status)
	}
	for i := 0; i < 4; i++ {
		await(t, ts, submit(t, ts, `{"workload":"mcf","config":{"scale":0.05}}`))
	}
	if resp, _ := getJSON(t, ts.url("/v1/jobs/"+canceled)); resp.StatusCode != http.StatusNotFound {
		t.Errorf("job canceled while queued still answers %d after 4 newer jobs with KeepFinished 2", resp.StatusCode)
	}
}

// TestStatsCodecSection: the codec section reports the summed capture
// account, with one capture per stream written and the pattern hit
// rate taken over block records, excluding each stream's done section.
func TestStatsCodecSection(t *testing.T) {
	ts := startServer(t, serve.Config{Workers: 1})
	await(t, ts, submit(t, ts, `{"workload":"lbm","config":{"scale":0.06}}`))

	_, data := getJSON(t, ts.url("/v1/stats"))
	var stats serve.StatsView
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatalf("stats decode: %v (%s)", err, data)
	}
	c := stats.Codec
	if sum := analysis.CodecTotalStats(); c.Captures != sum.Streams || c.Records != sum.Records {
		t.Errorf("codec captures %d records %d, summed account has %d streams %d records",
			c.Captures, c.Records, sum.Streams, sum.Records)
	}
	if c.Captures == 0 {
		t.Fatalf("codec section idle after a capture: %+v", c)
	}
	if want := float64(c.MatchedRecords) / float64(c.Records-c.Captures); c.PatternHitRate != want {
		t.Errorf("pattern_hit_rate %v, want matched_records/(records-captures) = %v", c.PatternHitRate, want)
	}
}

// TestStatsSectionKeysMatchAPIDoc pins the keys of the tracestore and
// durability sections of /v1/stats, and their order, to the example
// document in docs/API.md.
func TestStatsSectionKeysMatchAPIDoc(t *testing.T) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, example, ok := bytes.Cut(doc, []byte("`GET /v1/stats`:\n\n```json\n"))
	if ok {
		example, _, ok = bytes.Cut(example, []byte("```"))
	}
	if !ok {
		t.Fatal("docs/API.md has no GET /v1/stats example")
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(example, &sections); err != nil {
		t.Fatalf("docs/API.md stats example: %v", err)
	}
	for name, view := range map[string]any{
		"tracestore": serve.StoreStatsView{},
		"durability": serve.DurabilityView{},
	} {
		got, err := json.Marshal(view)
		if err != nil {
			t.Fatal(err)
		}
		if gk, dk := jsonKeys(t, got, ""), jsonKeys(t, sections[name], ""); !slices.Equal(gk, dk) {
			t.Errorf("%s keys:\n got %s\ndocs %s", name, strings.Join(gk, " "), strings.Join(dk, " "))
		}
	}
}

// jsonKeys lists the keys of the JSON object doc in document order,
// each prefixed with prefix; nested objects' keys follow their parent's,
// prefixed with it ("recovery.replayed").
func jsonKeys(t *testing.T, doc []byte, prefix string) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("want a JSON object, got %v (%v): %s", tok, err, doc)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var val json.RawMessage
		if err := dec.Decode(&val); err != nil {
			t.Fatal(err)
		}
		key := prefix + tok.(string)
		keys = append(keys, key)
		if bytes.HasPrefix(val, []byte("{")) {
			keys = append(keys, jsonKeys(t, val, key+".")...)
		}
	}
	return keys
}
