package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"wantraffic/internal/coord"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// wanstreamBin is the wanstream binary TestMain builds for tests that
// need a real process to kill; empty under -short.
var wanstreamBin string

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(func() int {
		if testing.Short() {
			return m.Run()
		}
		dir, err := os.MkdirTemp("", "wanstream-test-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		wanstreamBin = filepath.Join(dir, "wanstream")
		if out, err := exec.Command("go", "build", "-o", wanstreamBin, ".").CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building wanstream: %v\n%s", err, out)
			return 1
		}
		return m.Run()
	}())
}

// TestWorkerKilledMidRunResumes is the distributed crash drill: three
// shard files, a coordinator, and a wanstream worker on shard 0 paced
// slowly enough to be SIGKILLed once its checkpoint exists, while the
// other two shards' workers finish. Rerun with -resume, the worker
// skips the records its checkpoint already folded in, under a new
// epoch, and the coordinator completes with the digest one wanstream
// process computes over the same shard files.
func TestWorkerKilledMidRunResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds wanstream and paces a worker for seconds")
	}
	const shards, perShard = 3, 3000
	dir := t.TempDir()
	paths := make([]string, shards)
	for i := range paths {
		tr := &trace.ConnTrace{Name: "resume", Horizon: 3 * perShard}
		for j := 0; j < perShard; j++ {
			k := j*shards + i // round-robin decomposition of one trace
			tr.Conns = append(tr.Conns, trace.Conn{
				Start: float64(k) * 0.9, Duration: 0.5 + float64(k%13)*0.7, Proto: trace.Protocol(k % 4),
				BytesOrig: int64(100 + (k*37)%5000), BytesResp: int64(50 + (k*91)%90000),
			})
		}
		var buf bytes.Buffer
		if err := trace.WriteConnTrace(&buf, tr, false); err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.conn", i))
		if err := os.WriteFile(paths[i], buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errw bytes.Buffer
	if err := run(append([]string{"-json"}, paths...), &out, &errw); err != nil {
		t.Fatalf("reference run: %v\n%s", err, errw.String())
	}
	var ref struct {
		StateSHA256 string `json:"state_sha256"`
	}
	if err := json.Unmarshal(out.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}

	c, err := coord.New(coord.Options{ExpectedWorkers: shards})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	for path, h := range c.Handlers(nil) {
		mux.Handle(path, h)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Shard 0 ingests 256-record batches 300 ms apart, about 3.5 s in
	// all, checkpointing every second batch.
	ckpt := filepath.Join(dir, "ckpt0.json")
	worker0 := []string{"-coord", srv.URL, "-shard", "0", "-checkpoint", ckpt, "-chunk", "256", "-upload-every", "500"}
	killed := exec.Command(wanstreamBin, append(worker0, "-ingest-delay", "300ms", paths[0])...)
	var killedErr bytes.Buffer
	killed.Stderr = &killedErr
	if err := killed.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- killed.Wait() }()
	reaped := false
	defer func() {
		if !reaped {
			killed.Process.Kill()
			<-exited
		}
	}()

	for i := 1; i < shards; i++ {
		if err := run([]string{"-coord", srv.URL, "-shard", strconv.Itoa(i), "-upload-every", "1000", paths[i]}, &out, &errw); err != nil {
			t.Fatalf("worker %d: %v\n%s", i, err, errw.String())
		}
	}
	// Kill once the checkpoint holds more records than a reservoir
	// keeps, so the resumed reservoirs owe a replay of their draws.
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var cp coord.Upload
		if raw, err := os.ReadFile(ckpt); err == nil && json.Unmarshal(raw, &cp) == nil && cp.Records > stream.DefaultReservoirSize {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint past %d records after 20 s", stream.DefaultReservoirSize)
		}
	}
	// Process.Kill is SIGKILL on Unix: no deferred cleanup runs.
	if err := killed.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	err = <-exited
	reaped = true
	if killed.ProcessState.Exited() {
		t.Fatalf("worker 0 exited (%v) before the kill; it must be paced slower\n%s", err, killedErr.String())
	}

	out.Reset()
	if err := run(append(worker0, "-resume", "-json", paths[0]), &out, &errw); err != nil {
		t.Fatalf("resumed worker: %v\n%s", err, errw.String())
	}
	var rep coord.WorkerReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("resumed worker's -json report: %v\n%s", err, out.String())
	}
	if !rep.Resumed || rep.Skipped <= 0 || rep.Epoch < 2 {
		t.Errorf("resumed %v, skipped %d records, epoch %d; want resumed, skipped > 0, epoch >= 2",
			rep.Resumed, rep.Skipped, rep.Epoch)
	}

	select {
	case <-c.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator not complete after the resumed worker finished")
	}
	res, err := c.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != coord.ResultComplete || res.Records != shards*perShard {
		t.Errorf("status %s with %d records; want complete with %d", res.Status, res.Records, shards*perShard)
	}
	if res.Digest != ref.StateSHA256 {
		t.Errorf("merged_sha256 %s, single-process wanstream %s", res.Digest, ref.StateSHA256)
	}
}
