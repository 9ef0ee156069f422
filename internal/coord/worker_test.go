package coord

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wantraffic/internal/fault"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// writeShardFiles encodes each shard trace to its own file and
// returns the paths.
func writeShardFiles(t *testing.T, shards []*trace.ConnTrace) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, len(shards))
	for i, tr := range shards {
		paths[i] = filepath.Join(dir, "shard"+string(rune('0'+i))+".trace")
		if err := os.WriteFile(paths[i], encodeTrace(t, tr), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestWorkerMatchesSingleProcess: a worker over a shard file produces
// the same sketch bytes a single-shard session at the same global
// shard index does, so the coordinator's merge reproduces the
// single-process fold exactly.
func TestWorkerMatchesSingleProcess(t *testing.T) {
	const workers = 3
	tr := testTrace(2000)
	shards := splitTrace(tr, workers)
	paths := writeShardFiles(t, shards)
	cfg := stream.Config{Seed: 13}
	want := referenceDigest(t, shards, cfg)

	c, err := New(Options{ExpectedWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	base := newCoordServer(t, c, nil, "")
	for i := 0; i < workers; i++ {
		rep, err := RunWorker(context.Background(), WorkerOptions{
			ID: wname(i), Shard: i, TracePath: paths[i], Config: cfg,
			UploadEvery: 300,
			Client:      &Client{Base: base, Seed: uint64(i + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Records != int64(len(shards[i].Conns)) {
			t.Fatalf("worker %d records %d, want %d", i, rep.Records, len(shards[i].Conns))
		}
		if rep.Uploads < 2 {
			t.Fatalf("worker %d made %d uploads; UploadEvery=300 over %d records should checkpoint mid-run",
				i, rep.Uploads, rep.Records)
		}
	}
	if !c.Complete() {
		t.Fatal("coordinator not complete after all workers finished")
	}
	_, digest, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if digest != want {
		t.Fatalf("distributed digest %s, single-process reference %s", digest, want)
	}
}

// TestWorkerPacketTrace exercises the packet scan path end-to-end.
func TestWorkerPacketTrace(t *testing.T) {
	ptr := &trace.PacketTrace{Name: "pkt", Horizon: 100}
	tm := 0.0
	for i := 0; i < 800; i++ {
		tm += 0.01 + float64(i%7)*0.003
		ptr.Packets = append(ptr.Packets, trace.Packet{Time: tm, Size: 40 + (i*37)%1400, Proto: trace.Telnet})
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "pkt.trace")
	var buf bytes.Buffer
	if err := trace.WritePacketTrace(&buf, ptr, false); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Reference: single-shard session over the same file.
	sess, err := stream.NewSession(stream.PacketSketch, stream.PipelineOptions{Shards: 1, Config: stream.Config{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.IngestReader(context.Background(), bytes.NewReader(buf.Bytes()), trace.DecodeOptions{}); err != nil {
		t.Fatal(err)
	}
	ref, err := sess.Merged(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	refState, err := ref.State()
	if err != nil {
		t.Fatal(err)
	}

	c, err := New(Options{ExpectedWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := newCoordServer(t, c, nil, "")
	if _, err := RunWorker(context.Background(), WorkerOptions{
		ID: "pkt-w", Shard: 0, TracePath: path, Config: stream.Config{Seed: 4},
		Client: &Client{Base: base, Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}
	_, digest, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if digest != Digest(refState) {
		t.Fatalf("packet worker digest %s, reference %s", digest, Digest(refState))
	}
}

// TestWorkerResumeFromCheckpoint: a worker killed after a mid-run
// checkpoint resumes from it — skipping already-folded records, under
// a bumped epoch — and converges on the uninterrupted digest.
func TestWorkerResumeFromCheckpoint(t *testing.T) {
	tr := testTrace(1500)
	shards := splitTrace(tr, 1)
	paths := writeShardFiles(t, shards)
	cfg := stream.Config{Seed: 21}
	want := referenceDigest(t, shards, cfg)
	ckpt := filepath.Join(t.TempDir(), "worker.ckpt")

	// First run: the first upload (records=512) lands, then the network
	// partitions (CutAfter=1) — the second publish writes its checkpoint
	// (records=1024), exhausts its retries, and the worker dies. Upload
	// every 512 records = one chunk, so checkpoints align with batch
	// boundaries.
	c, err := New(Options{ExpectedWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := newCoordServer(t, c, nil, "")
	_, err = RunWorker(context.Background(), WorkerOptions{
		ID: "w0", Shard: 0, TracePath: paths[0], Config: cfg,
		UploadEvery: 512, Checkpoint: ckpt,
		Client: &Client{
			Base: base, Seed: 3, Retries: 2, Sleep: func(time.Duration) {},
			HTTPClient: &http.Client{Transport: fault.NewRoundTripper(nil, fault.HTTPPlan{CutAfter: 1})},
		},
	})
	if err == nil {
		t.Fatal("partitioned worker finished cleanly")
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written before kill: %v", err)
	}

	rep, err := RunWorker(context.Background(), WorkerOptions{
		ID: "w0", Shard: 0, TracePath: paths[0], Config: cfg,
		UploadEvery: 512, Checkpoint: ckpt, Resume: true,
		Client: &Client{Base: base, Seed: 4, Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resumed || rep.Skipped == 0 {
		t.Fatalf("restart did not resume: %+v", rep)
	}
	if rep.Epoch < 2 {
		t.Fatalf("restart kept epoch %d; every restart must open a new epoch", rep.Epoch)
	}
	if !c.Complete() {
		t.Fatal("coordinator incomplete after resumed worker finished")
	}
	_, digest, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if digest != want {
		t.Fatalf("post-resume digest %s, uninterrupted reference %s", digest, want)
	}
}

// TestWorkerCheckpointMismatchRejected: a checkpoint belonging to a
// different worker or shard must not silently be adopted.
func TestWorkerCheckpointMismatchRejected(t *testing.T) {
	tr := testTrace(600)
	shards := splitTrace(tr, 2)
	paths := writeShardFiles(t, shards)
	cfg := stream.Config{Seed: 5}
	ckpt := filepath.Join(t.TempDir(), "w.ckpt")

	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := newCoordServer(t, c, nil, "")
	if _, err := RunWorker(context.Background(), WorkerOptions{
		ID: "w0", Shard: 0, TracePath: paths[0], Config: cfg,
		Checkpoint: ckpt,
		Client:     &Client{Base: base, Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}
	_, err = RunWorker(context.Background(), WorkerOptions{
		ID: "w1", Shard: 1, TracePath: paths[1], Config: cfg,
		Checkpoint: ckpt, Resume: true,
		Client: &Client{Base: base, Seed: 2},
	})
	if err == nil {
		t.Fatal("foreign checkpoint adopted")
	}
}

// TestWorkerCorruptCheckpointReingests: an unreadable checkpoint is
// discarded with a fresh ingest, not a hard failure.
func TestWorkerCorruptCheckpointReingests(t *testing.T) {
	tr := testTrace(400)
	shards := splitTrace(tr, 1)
	paths := writeShardFiles(t, shards)
	cfg := stream.Config{Seed: 5}
	want := referenceDigest(t, shards, cfg)
	ckpt := filepath.Join(t.TempDir(), "w.ckpt")
	if err := os.WriteFile(ckpt, []byte(`{"proto":"wantraffic-coord/v1","worker":"w0"`), 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := New(Options{ExpectedWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := newCoordServer(t, c, nil, "")
	rep, err := RunWorker(context.Background(), WorkerOptions{
		ID: "w0", Shard: 0, TracePath: paths[0], Config: cfg,
		Checkpoint: ckpt, Resume: true,
		Client: &Client{Base: base, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed {
		t.Fatal("corrupt checkpoint marked as resumed")
	}
	_, digest, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if digest != want {
		t.Fatalf("digest %s, want %s", digest, want)
	}
}
