package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wantraffic/internal/cli"
	"wantraffic/internal/coord"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// syncBuffer lets the serve goroutine and the polling test share an
// output buffer.
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

func testConnTrace(n int) *trace.ConnTrace {
	tr := &trace.ConnTrace{Name: "e2e", Horizon: 7200}
	for i := 0; i < n; i++ {
		tr.Conns = append(tr.Conns, trace.Conn{
			Start: float64(i) * 1.25, Duration: 0.5 + float64(i%9)*0.3,
			Proto: trace.Protocol(i % 4), BytesOrig: int64(100 + i*13), BytesResp: int64(50 + i*7),
		})
	}
	return tr
}

func writeTraceFile(t *testing.T, tr *trace.ConnTrace, binary bool) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteConnTrace(&buf, tr, binary); err != nil {
		t.Fatal(err)
	}
	ext := ".conn"
	if binary {
		ext = ".wct"
	}
	p := filepath.Join(t.TempDir(), "t"+ext)
	if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// referenceDigest computes the single-process digest over a shard
// decomposition: per-shard single-shard sessions at their global
// offsets, canonically merged.
func referenceDigest(t *testing.T, paths []string, cfg stream.Config) string {
	t.Helper()
	sketches := make([]*stream.Sketch, len(paths))
	for i, p := range paths {
		sess, err := stream.NewSession(stream.ConnSketch, stream.PipelineOptions{
			Shards: 1, ShardOffset: i, Config: cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sess.IngestReader(context.Background(), f, trace.DecodeOptions{}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if sketches[i], err = sess.Merged(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := stream.MergeSketches(sketches)
	if err != nil {
		t.Fatal(err)
	}
	state, err := merged.State()
	if err != nil {
		t.Fatal(err)
	}
	return coord.Digest(state)
}

func TestRunErrorPaths(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "exists.json")
	if err := os.WriteFile(snap, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no subcommand", nil, cli.ExitUsage},
		{"unknown subcommand", []string{"merge"}, cli.ExitUsage},
		{"serve positional arg", []string{"serve", "x"}, cli.ExitUsage},
		{"serve negative workers", []string{"serve", "-workers", "-1"}, cli.ExitUsage},
		{"serve resume without snapshot", []string{"serve", "-resume"}, cli.ExitUsage},
		{"serve -serve flag rejected", []string{"serve", "-serve", ":0"}, cli.ExitUsage},
		{"serve over existing snapshot", []string{"serve", "-snapshot", snap}, cli.ExitFailure},
		{"split no file", []string{"split"}, cli.ExitUsage},
		{"split zero n", []string{"split", "-n", "0", "x"}, cli.ExitUsage},
		{"split missing file", []string{"split", "/nonexistent.conn"}, cli.ExitFailure},
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

// TestSplitRoundRobin pins the decomposition contract for both
// encodings: record i lands in shard i mod n, headers are preserved,
// and the shard files re-encode in the input's format.
func TestSplitRoundRobin(t *testing.T) {
	tr := testConnTrace(25)
	for _, binary := range []bool{false, true} {
		name := "text"
		if binary {
			name = "binary"
		}
		t.Run(name, func(t *testing.T) {
			in := writeTraceFile(t, tr, binary)
			prefix := filepath.Join(t.TempDir(), "sh")
			var out, errw bytes.Buffer
			if err := run([]string{"split", "-n", "3", "-o", prefix, in}, &out, &errw); err != nil {
				t.Fatal(err)
			}
			paths := strings.Fields(out.String())
			if len(paths) != 3 {
				t.Fatalf("split printed %d path(s), want 3:\n%s", len(paths), out.String())
			}
			total := 0
			for i, p := range paths {
				f, err := os.Open(p)
				if err != nil {
					t.Fatal(err)
				}
				sh, _, err := trace.ReadConnTrace(f, trace.DecodeOptions{})
				f.Close()
				if err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
				if sh.Name != tr.Name || sh.Horizon != tr.Horizon {
					t.Errorf("shard %d header %q/%g, want %q/%g", i, sh.Name, sh.Horizon, tr.Name, tr.Horizon)
				}
				for j, c := range sh.Conns {
					if want := tr.Conns[j*3+i]; c != want {
						t.Fatalf("shard %d record %d = %+v, want source record %d", i, j, c, j*3+i)
					}
				}
				total += len(sh.Conns)
			}
			if total != len(tr.Conns) {
				t.Errorf("shards hold %d records, want %d", total, len(tr.Conns))
			}
		})
	}
}

// startServe launches wancoord serve in a goroutine and returns the
// coordinator URL (scraped from the stderr banner), the output
// buffers, and a channel delivering run's error.
func startServe(t *testing.T, args []string) (string, *syncBuffer, chan error) {
	t.Helper()
	out, errw := &syncBuffer{}, &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(append([]string{"serve"}, args...), out, errw) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := errw.String(); strings.Contains(s, "coordinator: serving on ") {
			line := s[strings.Index(s, "coordinator: serving on ")+len("coordinator: serving on "):]
			return strings.TrimSpace(strings.SplitN(line, "\n", 2)[0]), out, done
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited before banner: %v\n%s", err, errw.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no serving banner:\n%s", errw.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// get returns a GET's body, failing the test unless it answers 200.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s (%v)", url, resp.Status, err)
	}
	return string(body)
}

// TestServeEndToEnd: split a trace, run a coordinator and two workers
// against it, and require the combined results to be complete with the
// single-process reference digest. On the way it checks the routes
// the monitor session serves for the coordinator.
func TestServeEndToEnd(t *testing.T) {
	in := writeTraceFile(t, testConnTrace(1200), false)
	prefix := filepath.Join(t.TempDir(), "sh")
	var out, errw bytes.Buffer
	if err := run([]string{"split", "-n", "2", "-o", prefix, in}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	paths := strings.Fields(out.String())
	cfg := stream.Config{Seed: 1}
	want := referenceDigest(t, paths, cfg)

	url, stdout, done := startServe(t, []string{"-workers", "2", "-wait", "30s", "-token", "s3cret"})

	// The coordinator's routes ride on the monitor session: its token
	// guard refuses a tokenless upload and counts the denial, and
	// /healthz names the tool, not the subcommand.
	resp, err := http.Post(url+"/v1/upload", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("tokenless upload: %s, want 403", resp.Status)
	}
	if metrics := get(t, url+"/metrics"); !strings.Contains(metrics, "\nmonitor_auth_denied_total 1\n") {
		t.Errorf("/metrics does not count the denial:\n%s", metrics)
	}
	if hz := get(t, url+"/healthz"); !strings.Contains(hz, `"tool":"wancoord"`) {
		t.Errorf("/healthz = %s, want tool wancoord", hz)
	}

	for i, p := range paths {
		if _, err := coord.RunWorker(context.Background(), coord.WorkerOptions{
			ID: fmt.Sprintf("worker-%d", i), Shard: i, TracePath: p, Config: cfg,
			UploadEvery: 256,
			Client:      &coord.Client{Base: url, Token: "s3cret", Seed: uint64(i + 1)},
		}); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not exit after all workers finalized")
	}
	var res coord.Results
	if err := json.Unmarshal([]byte(stdout.String()), &res); err != nil {
		t.Fatalf("results JSON: %v\n%s", err, stdout.String())
	}
	if res.Status != coord.ResultComplete || res.Finalized != 2 {
		t.Errorf("status %s, finalized %d; want complete/2", res.Status, res.Finalized)
	}
	if res.Digest != want {
		t.Errorf("merged_sha256 %s, reference %s", res.Digest, want)
	}
	if res.Records != 1200 {
		t.Errorf("records %d, want 1200", res.Records)
	}
}

// TestServeWaitElapsesPartial: with a worker missing, -wait bounds the
// run and the exit degrades to partial (code 3) with the arrived
// state still merged.
func TestServeWaitElapsesPartial(t *testing.T) {
	in := writeTraceFile(t, testConnTrace(300), false)
	prefix := filepath.Join(t.TempDir(), "sh")
	var out, errw bytes.Buffer
	if err := run([]string{"split", "-n", "2", "-o", prefix, in}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	paths := strings.Fields(out.String())

	url, stdout, done := startServe(t, []string{"-workers", "2", "-wait", "600ms"})
	if _, err := coord.RunWorker(context.Background(), coord.WorkerOptions{
		ID: "worker-0", Shard: 0, TracePath: paths[0], Config: stream.Config{Seed: 1},
		Client: &coord.Client{Base: url, Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("serve ignored -wait")
	}
	if got := cli.ExitCode(err); got != cli.ExitPartial {
		t.Fatalf("exit %d, want %d (err: %v)", got, cli.ExitPartial, err)
	}
	var res coord.Results
	if err := json.Unmarshal([]byte(stdout.String()), &res); err != nil {
		t.Fatalf("results JSON: %v\n%s", err, stdout.String())
	}
	if res.Status != coord.ResultPartial || res.Reporting != 1 || res.Expected != 2 {
		t.Errorf("status %s, %d of %d workers reporting; want partial, 1 of 2", res.Status, res.Reporting, res.Expected)
	}
	if res.Records != 150 {
		t.Errorf("partial records %d, want the arrived worker's 150", res.Records)
	}
}

// TestServeSnapshotRestart: a coordinator killed (here: -wait elapsing)
// after accepting state resumes from its snapshot with -resume and
// completes once the missing worker reports.
func TestServeSnapshotRestart(t *testing.T) {
	in := writeTraceFile(t, testConnTrace(600), false)
	dir := t.TempDir()
	prefix := filepath.Join(dir, "sh")
	var out, errw bytes.Buffer
	if err := run([]string{"split", "-n", "2", "-o", prefix, in}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	paths := strings.Fields(out.String())
	cfg := stream.Config{Seed: 9}
	want := referenceDigest(t, paths, cfg)
	snap := filepath.Join(dir, "coord.json")

	url, _, done := startServe(t, []string{"-workers", "2", "-wait", "800ms", "-snapshot", snap})
	if _, err := coord.RunWorker(context.Background(), coord.WorkerOptions{
		ID: "worker-0", Shard: 0, TracePath: paths[0], Config: cfg,
		Client: &coord.Client{Base: url, Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; cli.ExitCode(err) != cli.ExitPartial {
		t.Fatalf("first life should end partial, got %v", err)
	}

	url, stdout, done := startServe(t, []string{"-workers", "2", "-wait", "30s", "-snapshot", snap, "-resume"})
	if _, err := coord.RunWorker(context.Background(), coord.WorkerOptions{
		ID: "worker-1", Shard: 1, TracePath: paths[1], Config: cfg,
		Client: &coord.Client{Base: url, Seed: 2},
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("resumed serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("resumed serve did not complete")
	}
	var res coord.Results
	if err := json.Unmarshal([]byte(stdout.String()), &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != coord.ResultComplete {
		t.Fatalf("resumed status %s, want complete", res.Status)
	}
	if res.Digest != want {
		t.Errorf("post-restart digest %s, reference %s", res.Digest, want)
	}
}

// TestSplitBinaryShardsPinned pins the binary batch writer's output to
// literal bytes: split re-encodes each shard through it, so a shard
// file is a counted header ("WCT1"/"WPT1", name length and name,
// horizon, record count) followed by the fixed-width records. The
// input is a streamed binary trace from the streaming encoder, whose
// own header carries the StreamedCount sentinel instead of a count.
func TestSplitBinaryShardsPinned(t *testing.T) {
	conns := []trace.Conn{
		{Start: 0.5, Duration: 1.25, Proto: trace.Telnet, BytesOrig: 100, BytesResp: 2048, SessionID: 1},
		{Start: 1.75, Duration: 0.0625, Proto: trace.FTPData, BytesResp: 1 << 20, SessionID: -2},
		{Start: 3, Duration: 10, Proto: trace.Protocol(42), BytesOrig: 1 << 62, BytesResp: 7},
	}
	pkts := []trace.Packet{
		{Time: 0.25, Size: 512, Proto: trace.Telnet, ConnID: 7},
		{Time: 0.5, Size: 1460, Proto: trace.FTPData, ConnID: -8},
		{Time: 1.125, Size: 40, Proto: trace.SMTP, ConnID: 9},
	}
	cases := []struct {
		name   string
		encode func(w io.Writer) error
		shards []string // hex of shard 0 and shard 1: header, then one record a line
	}{
		{"conn", func(w io.Writer) error {
			enc, err := trace.NewConnEncoder(w, "pin", 60, true)
			if err != nil {
				return err
			}
			for _, c := range conns {
				if err := enc.Write(c); err != nil {
					return err
				}
			}
			return enc.Flush()
		}, []string{
			"57435431030070696e0000000000004e400200000000000000" +
				"000000000000e03f000000000000f43f01640000000000000000080000000000000100000000000000" +
				"000000000000084000000000000024402a000000000000004007000000000000000000000000000000",
			"57435431030070696e0000000000004e400100000000000000" +
				"000000000000fc3f000000000000b03f0500000000000000000000100000000000feffffffffffffff",
		}},
		{"packet", func(w io.Writer) error {
			enc, err := trace.NewPacketEncoder(w, "pin", 2, true)
			if err != nil {
				return err
			}
			for _, p := range pkts {
				if err := enc.Write(p); err != nil {
					return err
				}
			}
			return enc.Flush()
		}, []string{
			"57505431030070696e00000000000000400200000000000000" +
				"000000000000d03f00020000010700000000000000" +
				"000000000000f23f28000000060900000000000000",
			"57505431030070696e00000000000000400100000000000000" +
				"000000000000e03fb405000005f8ffffffffffffff",
		}},
	}
	for _, tc := range cases {
		var in bytes.Buffer
		if err := tc.encode(&in); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "in.bin")
		if err := os.WriteFile(path, in.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errw bytes.Buffer
		if err := run([]string{"split", "-n", "2", "-o", filepath.Join(dir, "sh"), path}, &out, &errw); err != nil {
			t.Fatalf("%s: split: %v\n%s", tc.name, err, errw.String())
		}
		paths := strings.Fields(out.String())
		if len(paths) != len(tc.shards) {
			t.Fatalf("%s: split wrote %d shard(s), want %d", tc.name, len(paths), len(tc.shards))
		}
		for i, p := range paths {
			got, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if h := hex.EncodeToString(got); h != tc.shards[i] {
				t.Errorf("%s shard %d bytes:\n%s\nwant pinned:\n%s", tc.name, i, h, tc.shards[i])
			}
		}
	}
}
