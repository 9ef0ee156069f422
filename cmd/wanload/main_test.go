package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wantraffic/internal/cli"
	"wantraffic/internal/obs"
	"wantraffic/internal/trace"
)

func writeScenario(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func smallScenario(t *testing.T) string {
	return writeScenario(t, `{
		"name": "small",
		"kind": "conn",
		"horizon": 120,
		"sources": [
			{"name": "tel", "proto": "TELNET", "pattern": "poisson", "users": 4, "rate": 10},
			{"name": "ftp", "proto": "FTP", "pattern": "uniform", "users": 2, "rate": 3}
		]
	}`)
}

func TestUsageErrors(t *testing.T) {
	sc := smallScenario(t)
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no args", nil, cli.ExitUsage},
		{"unknown flag", []string{"-bogus", sc}, cli.ExitUsage},
		{"two files", []string{sc, sc}, cli.ExitUsage},
		{"preset plus file", []string{"-preset", "LBL-1", sc}, cli.ExitUsage},
		{"unknown preset", []string{"-preset", "ATLANTIS"}, cli.ExitUsage},
		{"negative dilate", []string{"-dilate", "-1", sc}, cli.ExitUsage},
		{"negative users", []string{"-users", "-2", sc}, cli.ExitUsage},
		{"zero preset-users", []string{"-preset", "LBL-1", "-preset-users", "0"}, cli.ExitUsage},
		{"o and listen", []string{"-o", "x", "-listen", ":0", sc}, cli.ExitUsage},
		{"missing scenario", []string{"/nonexistent/s.json"}, cli.ExitFailure},
		{"bad scenario json", []string{writeScenario(t, `{"kind": "conn"`)}, cli.ExitUsage},
		{"invalid scenario", []string{writeScenario(t, `{"kind": "conn", "horizon": 9, "sources": []}`)}, cli.ExitUsage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			err := run(tc.args, &out, &errw)
			if got := cli.ExitCode(err); got != tc.code {
				t.Errorf("run(%v) exit %d, want %d (err: %v)", tc.args, got, tc.code, err)
			}
		})
	}
}

func TestEmitsParseableTrace(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-seed", "42", smallScenario(t)}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	tr, _, err := trace.ReadConnTrace(bytes.NewReader(out.Bytes()), trace.DecodeOptions{})
	if err != nil {
		t.Fatalf("output does not parse as a conn trace: %v", err)
	}
	if len(tr.Conns) == 0 || tr.Name != "small" {
		t.Fatalf("trace name %q with %d records", tr.Name, len(tr.Conns))
	}
	if !strings.Contains(errw.String(), "6 user(s)") || !strings.Contains(errw.String(), "done") {
		t.Errorf("stderr summary:\n%s", errw.String())
	}
}

func TestSeedDeterminism(t *testing.T) {
	sc := smallScenario(t)
	outs := make([]string, 3)
	for i, args := range [][]string{
		{"-seed", "42", sc},
		{"-seed", "42", sc},
		{"-seed", "7", sc},
	} {
		var out, errw bytes.Buffer
		if err := run(args, &out, &errw); err != nil {
			t.Fatal(err)
		}
		outs[i] = out.String()
	}
	if outs[0] != outs[1] {
		t.Fatal("same seed produced different traces")
	}
	if outs[0] == outs[2] {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestDurationOverrideAndReport(t *testing.T) {
	rp := filepath.Join(t.TempDir(), "rep.json")
	var out, errw bytes.Buffer
	if err := run([]string{"-seed", "1", "-duration", "30s", "-report", rp, smallScenario(t)}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	tr, _, err := trace.ReadConnTrace(bytes.NewReader(out.Bytes()), trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Conns {
		if c.Start >= 30 {
			t.Fatalf("record at %g past the 30s -duration override", c.Start)
		}
	}
	raw, err := os.ReadFile(rp)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Scenario string           `json:"scenario"`
		Records  int64            `json:"records"`
		PerProto map[string]int64 `json:"per_proto"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("-report is not JSON: %v", err)
	}
	if rep.Scenario != "small" || rep.Records != int64(len(tr.Conns)) {
		t.Errorf("report %+v vs %d trace records", rep, len(tr.Conns))
	}
	if rep.PerProto["TELNET"] == 0 || rep.PerProto["FTP"] == 0 {
		t.Errorf("per-proto counts missing: %v", rep.PerProto)
	}
}

func TestBinaryOutput(t *testing.T) {
	var text, bin, errw bytes.Buffer
	if err := run([]string{"-seed", "42", smallScenario(t)}, &text, &errw); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "42", "-binary", smallScenario(t)}, &bin, &errw); err != nil {
		t.Fatal(err)
	}
	tt, _, err := trace.ReadConnTrace(bytes.NewReader(text.Bytes()), trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bt, _, err := trace.ReadConnTrace(bytes.NewReader(bin.Bytes()), trace.DecodeOptions{})
	if err != nil {
		t.Fatalf("binary output does not parse: %v", err)
	}
	if len(tt.Conns) != len(bt.Conns) {
		t.Fatalf("text %d records, binary %d", len(tt.Conns), len(bt.Conns))
	}
}

func TestOutputFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "out.conn")
	var out, errw bytes.Buffer
	if err := run([]string{"-seed", "1", "-o", p, smallScenario(t)}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Error("-o run still wrote to stdout")
	}
	f, err := os.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, err := trace.ReadConnTrace(f, trace.DecodeOptions{}); err != nil {
		t.Fatalf("-o file does not parse: %v", err)
	}
}

func TestPresetScenario(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-preset", "LBL-1", "-preset-users", "4", "-duration", "20m", "-seed", "3"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := trace.ReadConnTrace(bytes.NewReader(out.Bytes()), trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Conns) == 0 {
		t.Fatal("preset run emitted nothing")
	}
}

func TestStdinScenario(t *testing.T) {
	body, err := os.ReadFile(smallScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdin
	os.Stdin = r
	defer func() { os.Stdin = saved }()
	go func() {
		w.Write(body)
		w.Close()
	}()
	var out, errw bytes.Buffer
	if err := run([]string{"-seed", "1", "-"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if _, _, err := trace.ReadConnTrace(bytes.NewReader(out.Bytes()), trace.DecodeOptions{}); err != nil {
		t.Fatalf("stdin-scenario output does not parse: %v", err)
	}
}

// syncBuffer lets the test read stderr while run() is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls the buffer for a line with the given prefix and
// returns the rest of that line.
func waitFor(t *testing.T, b *syncBuffer, prefix string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(b.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return strings.TrimSpace(rest)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no %q line in stderr:\n%s", prefix, b.String())
	return ""
}

func TestListenStreamsToClient(t *testing.T) {
	sc := smallScenario(t)
	errw := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		var out bytes.Buffer
		done <- run([]string{"-seed", "1", "-listen", "127.0.0.1:0", sc}, &out, errw)
	}()
	addr := waitFor(t, errw, "load: listening on ")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(conn)
	conn.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	tr, _, err := trace.ReadConnTrace(bytes.NewReader(data), trace.DecodeOptions{})
	if err != nil {
		t.Fatalf("streamed trace does not parse: %v", err)
	}
	if len(tr.Conns) == 0 {
		t.Fatal("no records streamed")
	}
}

// reshapeEvents attaches to the monitor's /events stream and delivers
// the load_reshape events it carries once the stream ends.
func reshapeEvents(t *testing.T, base string) <-chan []obs.StreamEvent {
	t.Helper()
	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []obs.StreamEvent, 1)
	go func() {
		defer resp.Body.Close()
		var evs []obs.StreamEvent
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev obs.StreamEvent
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok &&
				json.Unmarshal([]byte(data), &ev) == nil && ev.Kind == obs.EventLoadReshape {
				evs = append(evs, ev)
			}
		}
		out <- evs
	}()
	return out
}

// TestLiveReshapeEndpoint drives the full serving path: a dilated run
// of a scenario with a scheduled phase, under -serve and -serve-token,
// a rejected tokenless POST, an accepted reshape, both reshapes on
// /events, and the run summary counting them.
func TestLiveReshapeEndpoint(t *testing.T) {
	sc := writeScenario(t, `{
		"name": "live",
		"kind": "conn",
		"horizon": 40,
		"sources": [
			{"name": "tel", "proto": "TELNET", "pattern": "poisson", "users": 4, "rate": 50}
		],
		"phases": [
			{"at": 30, "pattern": "bursty", "scale": 2}
		]
	}`)
	errw := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		var out bytes.Buffer
		// 20 trace seconds per wall second: a ~2 s window to POST in.
		done <- run([]string{"-seed", "1", "-dilate", "20",
			"-serve", "127.0.0.1:0", "-serve-token", "s3", sc}, &out, errw)
	}()
	base := waitFor(t, errw, "monitor: serving on ")
	events := reshapeEvents(t, base)
	// The route is mounted before this line is printed.
	waitFor(t, errw, "load: scenario ")

	post := func(token string) int {
		req, err := http.NewRequest(http.MethodPost, base+"/load/reshape",
			strings.NewReader(`{"scale": 3}`))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("X-Wantraffic-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(""); code != http.StatusForbidden {
		t.Errorf("tokenless reshape: status %d, want 403", code)
	}
	if code := post("s3"); code != http.StatusOK {
		t.Errorf("reshape: status %d, want 200", code)
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if sum := waitFor(t, errw, "load: done: "); !strings.Contains(sum, "2 reshape(s)") {
		t.Errorf("summary %q should count the live reshape and the phase", sum)
	}
	evs := <-events
	if len(evs) != 2 {
		t.Fatalf("%d load_reshape event(s) on /events, want 2: %+v", len(evs), evs)
	}
	origins := map[string]bool{}
	for _, ev := range evs {
		origins[ev.Attrs["origin"]] = true
	}
	if !origins["control"] || !origins["phase"] {
		t.Errorf("load_reshape origins %v, want control and phase", origins)
	}
}
