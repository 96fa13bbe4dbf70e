// Command servesmoke is the gate's end-to-end server check: it boots a
// real teaserve binary on an ephemeral port with every documented flag
// set, drives each endpoint of the /v1 API over actual TCP, verifies
// the raw profile bytes match an in-process analysis.RunProgram of the
// same job and that a repeated request is served byte-identically from
// the profile memo, and finishes by proving a SIGTERM shutdown is clean (exit
// code 0, drained pool, "shutdown complete" on stdout).
//
//	go build -o bin/teaserve ./cmd/teaserve
//	go run ./scripts/servesmoke -bin bin/teaserve
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/workloads"
)

func main() {
	bin := flag.String("bin", "bin/teaserve", "teaserve binary to smoke")
	flag.Parse()
	if err := run(*bin); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: PASS")
}

func run(bin string) error {
	logPath, err := os.CreateTemp("", "teaserve-log-*")
	if err != nil {
		return err
	}
	defer os.Remove(logPath.Name())
	cacheDir, err := os.MkdirTemp("", "teaserve-cache-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)

	// Every documented flag is exercised, so a flag that disappears (or
	// breaks) fails the gate — the docs and the binary cannot drift.
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-workers", "2",
		"-queue", "32",
		"-quota-rate", "200",
		"-quota-burst", "100",
		"-job-timeout", "60s",
		"-max-body", "65536",
		"-max-iters", "65536",
		"-max-scale", "2",
		"-keep-finished", "128",
		"-drain", "5s",
		"-mem-budget", "16777216",
		"-tracecache", cacheDir,
	)
	cmd.Stdout = logPath
	cmd.Stderr = logPath
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", bin, err)
	}
	defer cmd.Process.Kill()

	base, err := waitListening(logPath.Name())
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 30 * time.Second}

	if err := smokeAPI(client, base); err != nil {
		return err
	}

	// Clean SIGTERM shutdown: exit code 0 and the farewell line.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			log, _ := os.ReadFile(logPath.Name())
			return fmt.Errorf("server exited nonzero after SIGTERM: %v\n%s", err, log)
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("server did not exit within 30s of SIGTERM")
	}
	log, _ := os.ReadFile(logPath.Name())
	if !bytes.Contains(log, []byte("shutdown complete")) {
		return fmt.Errorf("server log missing 'shutdown complete':\n%s", log)
	}
	return nil
}

// waitListening polls the server log for the listening line and
// extracts the bound address.
func waitListening(logPath string) (string, error) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(logPath)
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if addr, ok := strings.CutPrefix(line, "teaserve: listening on "); ok {
					return "http://" + strings.TrimSpace(addr), nil
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	data, _ := os.ReadFile(logPath)
	return "", fmt.Errorf("server never printed its listening line; log:\n%s", data)
}

// smokeAPI walks every endpoint of the /v1 surface.
func smokeAPI(client *http.Client, base string) error {
	// Health first.
	if err := expectStatus(client, "GET", base+"/v1/healthz", "", 200); err != nil {
		return err
	}

	// Malformed submissions: bad JSON, unknown field, both 400 with the
	// JSON error envelope; unknown paths and jobs are JSON 404s.
	for _, tc := range []struct {
		method, path, body string
		status             int
	}{
		{"POST", "/v1/jobs", `{{{`, 400},
		{"POST", "/v1/jobs", `{"workload":"mcf","bogus":1}`, 400},
		{"POST", "/v1/jobs", `{"workload":"doom"}`, 400},
		{"GET", "/v1/jobs/j-999999", "", 404},
		{"GET", "/totally/unknown", "", 404},
	} {
		if err := expectErrorEnvelope(client, tc.method, base+tc.path, tc.body, tc.status); err != nil {
			return err
		}
	}

	// A real job, polled to completion.
	const request = `{"tenant":"smoke","workload":"mcf","techniques":["tea","golden"],"config":{"scale":0.05}}`
	id, err := submit(client, base, request)
	if err != nil {
		return err
	}
	view, err := awaitJob(client, base, id)
	if err != nil {
		return err
	}
	if view.Status != "done" {
		return fmt.Errorf("job %s finished %q, want done", id, view.Status)
	}

	// The core contract: raw profile bytes identical to a local run.
	w, err := workloads.ByName("mcf")
	if err != nil {
		return err
	}
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.05
	br := analysis.RunProgram(w, w.Build(rc.Iters(w)), rc)
	for name, p := range map[string]interface{ WriteJSON(io.Writer) error }{
		"tea": br.TEA, "golden": br.Golden,
	} {
		var want bytes.Buffer
		if err := p.WriteJSON(&want); err != nil {
			return err
		}
		got, err := get(client, base+"/v1/jobs/"+id+"/profiles/"+name)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want.Bytes()) {
			return fmt.Errorf("%s profile from server (%d bytes) differs from local analysis.RunProgram (%d bytes)",
				name, len(got), want.Len())
		}
	}

	// Stream the same request again: both profiles must come from the
	// server's profile memo (no capture, no trace-store lookup), byte-
	// identical to the first job's, and the NDJSON protocol must
	// terminate with an end record.
	stats1, err := getStats(client, base)
	if err != nil {
		return err
	}
	id2, err := submit(client, base, request)
	if err != nil {
		return err
	}
	if err := streamToEnd(client, base, id2); err != nil {
		return err
	}
	stats2, err := getStats(client, base)
	if err != nil {
		return err
	}
	if stats2.Captures != stats1.Captures {
		return fmt.Errorf("identical job recaptured: captures %d -> %d", stats1.Captures, stats2.Captures)
	}
	if stats2.Submitted < 2 {
		return fmt.Errorf("stats submitted = %d, want >= 2", stats2.Submitted)
	}
	m1, m2 := stats1.ProfileMemo, stats2.ProfileMemo
	if m2.Hits != m1.Hits+2 || m2.Misses != m1.Misses || stats2.TraceStore != stats1.TraceStore {
		return fmt.Errorf("repeated job was not a memo hit: profile_memo %+v -> %+v, tracestore %+v -> %+v",
			m1, m2, stats1.TraceStore, stats2.TraceStore)
	}
	for _, name := range []string{"tea", "golden"} {
		first, err := get(client, base+"/v1/jobs/"+id+"/profiles/"+name)
		if err != nil {
			return err
		}
		second, err := get(client, base+"/v1/jobs/"+id2+"/profiles/"+name)
		if err != nil {
			return err
		}
		if !bytes.Equal(first, second) {
			return fmt.Errorf("memoised %s profile differs from the first job's", name)
		}
	}

	// Cancel of a terminal job is a 409 conflict.
	if err := expectErrorEnvelope(client, "DELETE", base+"/v1/jobs/"+id, "", 409); err != nil {
		return err
	}
	return nil
}

type jobView struct {
	Status string `json:"status"`
}

type statsView struct {
	Submitted  uint64 `json:"submitted"`
	Captures   uint64 `json:"captures"`
	TraceStore struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"tracestore"`
	ProfileMemo struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"profile_memo"`
}

func submit(client *http.Client, base, body string) (string, error) {
	resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 202 {
		return "", fmt.Errorf("submit: %d %s", resp.StatusCode, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.ID == "" {
		return "", fmt.Errorf("submit response %q: %v", data, err)
	}
	return sub.ID, nil
}

func awaitJob(client *http.Client, base, id string) (jobView, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		data, err := get(client, base+"/v1/jobs/"+id)
		if err != nil {
			return jobView{}, err
		}
		var view jobView
		if err := json.Unmarshal(data, &view); err != nil {
			return jobView{}, err
		}
		switch view.Status {
		case "done", "failed", "canceled":
			return view, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return jobView{}, fmt.Errorf("job %s never finished", id)
}

func streamToEnd(client *http.Client, base, id string) error {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	sawProfile := false
	for {
		var rec struct {
			Type string   `json:"type"`
			Job  *jobView `json:"job"`
		}
		if err := dec.Decode(&rec); err == io.EOF {
			return fmt.Errorf("stream ended without an end record")
		} else if err != nil {
			return fmt.Errorf("stream decode: %w", err)
		}
		switch rec.Type {
		case "profile":
			sawProfile = true
		case "end":
			if rec.Job == nil || rec.Job.Status != "done" {
				return fmt.Errorf("stream end record %+v, want done job", rec.Job)
			}
			if !sawProfile {
				return fmt.Errorf("stream finished without a profile record")
			}
			return nil
		}
	}
}

func getStats(client *http.Client, base string) (statsView, error) {
	data, err := get(client, base+"/v1/stats")
	if err != nil {
		return statsView{}, err
	}
	var sv statsView
	if err := json.Unmarshal(data, &sv); err != nil {
		return statsView{}, fmt.Errorf("stats decode: %w (%s)", err, data)
	}
	return sv, nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, data)
	}
	return data, nil
}

func expectStatus(client *http.Client, method, url, body string, want int) error {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: got %d, want %d (%s)", method, url, resp.StatusCode, want, data)
	}
	return nil
}

// expectErrorEnvelope asserts both the status and the JSON error
// contract: {"error":{"kind":...,"status":...,"message":...}}.
func expectErrorEnvelope(client *http.Client, method, url, body string, want int) error {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: got %d, want %d (%s)", method, url, resp.StatusCode, want, data)
	}
	var env struct {
		Error *struct {
			Kind    string `json:"kind"`
			Status  int    `json:"status"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil || env.Error == nil {
		return fmt.Errorf("%s %s: %d response is not an error envelope: %s", method, url, resp.StatusCode, data)
	}
	if env.Error.Kind == "" || env.Error.Status != want || env.Error.Message == "" {
		return fmt.Errorf("%s %s: malformed error envelope %s", method, url, data)
	}
	return nil
}
