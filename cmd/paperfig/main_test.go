package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wantraffic/internal/cli"
	"wantraffic/internal/monitor"
)

func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
		{"unknown flag", []string{"-bogus"}, cli.ExitUsage, ""},
		{"unknown experiment", []string{"-exp", "fig99"}, cli.ExitUsage, "unknown experiment"},
		{"negative workers", []string{"-workers", "-1"}, cli.ExitUsage, "-workers must be >= 0"},
		{"explicit zero workers", []string{"-parallel", "-workers", "0"}, cli.ExitUsage, "-workers 0 with -parallel"},
		{"negative retries", []string{"-retries", "-1"}, cli.ExitUsage, "-retries must be >= 0"},
		{"negative timeout", []string{"-timeout", "-1s"}, cli.ExitUsage, "-timeout and -backoff"},
		{"resume without checkpoint", []string{"-resume"}, cli.ExitUsage, "-resume requires -checkpoint"},
		{"resume with empty checkpoint", []string{"-resume", "-checkpoint", ""}, cli.ExitUsage, "-resume requires -checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			err := run(tc.args, &out, &errw)
			if got := cli.ExitCode(err); got != tc.code {
				t.Errorf("run(%v) exit %d, want %d (err: %v)", tc.args, got, tc.code, err)
			}
			if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("run(%v) err %v, want substring %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestListExitsZero(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-list"}, &out, &errw); err != nil {
		t.Fatalf("-list: %v", err)
	}
	if !strings.Contains(out.String(), "fig2") {
		t.Errorf("-list output missing experiments:\n%s", out.String())
	}
}

// TestInstrumentedRunExports: a short engine run exports a Chrome
// trace holding the run, job and attempt spans, and a metrics
// snapshot counting the one job that succeeded.
func TestInstrumentedRunExports(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.json")
	var out, errw bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-parallel", "-trace-out", tracePath, "-metrics-out", metricsPath}, &out, &errw); err != nil {
		t.Fatalf("instrumented fig2: %v\n%s", err, errw.String())
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	readJSON(t, tracePath, &tr)
	names := map[string]bool{}
	for _, e := range tr.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"run", "job:fig2", "attempt:1"} {
		if !names[want] {
			t.Errorf("trace lacks span %q; has %v", want, names)
		}
	}
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	readJSON(t, metricsPath, &m)
	if got := m.Counters["runner.jobs.ok"]; got != 1 {
		t.Errorf("runner.jobs.ok = %d, want 1 (counters %v)", got, m.Counters)
	}
}

// readJSON decodes the JSON file at path into v.
func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestImplicitWorkersDefaultAccepted pins that -parallel WITHOUT an
// explicit -workers keeps the documented 0 → GOMAXPROCS default: the
// validator must reject only an explicitly passed zero.
func TestImplicitWorkersDefaultAccepted(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-parallel", "-exp", "fig99"}, &out, &errw)
	// fig99 is unknown, so we expect THAT usage error — not a workers
	// complaint. Reaching the experiment lookup proves validation passed.
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("want to reach experiment lookup, got: %v", err)
	}
}

// lineWatch is a goroutine-safe stderr that closes seen once the
// output contains want.
type lineWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	want string
	seen chan struct{}
}

func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	was := strings.Contains(w.buf.String(), w.want)
	w.buf.Write(p)
	if !was && strings.Contains(w.buf.String(), w.want) {
		close(w.seen)
	}
	return len(p), nil
}

func (w *lineWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServeLingerProbe serves a short run and probes the monitor from
// outside the run, once its registry has settled: /healthz names the
// tool, the exposition is valid and stable across reads, only a POST
// ends the linger, and the artifact still reaches stdout.
func TestServeLingerProbe(t *testing.T) {
	var stdout bytes.Buffer
	stderr := &lineWatch{want: "monitor: work done", seen: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-exp", "appxa", "-serve", "127.0.0.1:0", "-serve-linger", "60s"}, &stdout, stderr)
	}()
	select {
	case <-stderr.seen:
	case err := <-done:
		t.Fatalf("run returned before lingering: %v\n%s", err, stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatalf("no linger announcement:\n%s", stderr.String())
	}
	var url string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if u, ok := strings.CutPrefix(line, "monitor: serving on "); ok {
			url = u
		}
	}
	if url == "" {
		t.Fatalf("no serving banner:\n%s", stderr.String())
	}
	released := false
	defer func() {
		if !released {
			if resp, err := http.Post(url+"/quitquitquit", "", nil); err == nil {
				resp.Body.Close()
			}
			<-done
		}
	}()

	_, body := httpGet(t, url+"/healthz")
	var hz struct {
		Tool string `json:"tool"`
	}
	if err := json.Unmarshal(body, &hz); err != nil || hz.Tool != "paperfig" {
		t.Errorf("/healthz = %s, want tool paperfig", body)
	}

	_, m1 := httpGet(t, url+"/metrics")
	_, m2 := httpGet(t, url+"/metrics")
	if !bytes.Equal(m1, m2) {
		t.Errorf("settled /metrics differs across reads:\n%s\n---\n%s", m1, m2)
	}
	if err := monitor.ValidateOpenMetrics(m1); err != nil {
		t.Errorf("/metrics invalid: %v", err)
	}
	if !bytes.Contains(m1, []byte("runner_jobs_ok_total 1\n")) {
		t.Errorf("/metrics missing runner_jobs_ok_total 1:\n%s", m1)
	}

	if code, _ := httpGet(t, url+"/quitquitquit"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /quitquitquit = %d, want 405", code)
	}
	resp, err := http.Post(url+"/quitquitquit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	released = true
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after quit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("POST /quitquitquit did not release the linger")
	}
	if !strings.Contains(stdout.String(), "### appxa") {
		t.Errorf("stdout missing the appxa artifact:\n%s", stdout.String())
	}
}
