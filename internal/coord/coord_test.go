package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wantraffic/internal/obs"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// testTrace builds a deterministic connection trace.
func testTrace(n int) *trace.ConnTrace {
	rng := rand.New(rand.NewSource(77))
	tr := &trace.ConnTrace{Name: "coord-test", Horizon: 7200}
	t := 0.0
	protos := []trace.Protocol{trace.Telnet, trace.FTPData, trace.SMTP, trace.NNTP}
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() * 1.5
		tr.Conns = append(tr.Conns, trace.Conn{
			Start: t, Duration: rng.ExpFloat64() * 30,
			Proto:     protos[i%len(protos)],
			BytesOrig: rng.Int63n(1 << 16), BytesResp: rng.Int63n(1 << 20),
		})
	}
	return tr
}

// splitTrace decomposes a trace record-by-record round-robin into n
// shard traces, the same decomposition `wancoord split` performs.
func splitTrace(tr *trace.ConnTrace, n int) []*trace.ConnTrace {
	out := make([]*trace.ConnTrace, n)
	for i := range out {
		out[i] = &trace.ConnTrace{Name: tr.Name, Horizon: tr.Horizon}
	}
	for i, c := range tr.Conns {
		s := out[i%n]
		s.Conns = append(s.Conns, c)
	}
	return out
}

func encodeTrace(t testing.TB, tr *trace.ConnTrace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteConnTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shardSketch ingests one shard trace through a single-shard session
// stamped with the shard's global index — the single-process reference
// for what a worker on that shard must produce.
func shardSketch(t testing.TB, tr *trace.ConnTrace, shard int, cfg stream.Config) *stream.Sketch {
	t.Helper()
	sess, err := stream.NewSession(stream.ConnSketch, stream.PipelineOptions{
		Shards: 1, ShardOffset: shard, Config: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.IngestReader(context.Background(),
		bytes.NewReader(encodeTrace(t, tr)), trace.DecodeOptions{}); err != nil {
		t.Fatal(err)
	}
	sk, err := sess.Merged(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// referenceDigest computes the single-process merged digest over a
// shard decomposition: per-shard single-shard sessions folded in
// canonical order.
func referenceDigest(t *testing.T, shards []*trace.ConnTrace, cfg stream.Config) string {
	t.Helper()
	sketches := make([]*stream.Sketch, len(shards))
	for i, tr := range shards {
		sketches[i] = shardSketch(t, tr, i, cfg)
	}
	merged, err := stream.MergeSketches(sketches)
	if err != nil {
		t.Fatal(err)
	}
	state, err := merged.State()
	if err != nil {
		t.Fatal(err)
	}
	return Digest(state)
}

// uploadFor wraps a sketch's serialized state in an upload envelope.
func uploadFor(t testing.TB, sk *stream.Sketch, worker string, shard int, epoch, seq int64, final bool) Upload {
	t.Helper()
	state, err := sk.State()
	if err != nil {
		t.Fatal(err)
	}
	return Upload{
		Proto: Proto, Worker: worker, Shard: shard,
		Epoch: epoch, Seq: seq, Records: sk.Records(),
		Final: final, Digest: Digest(state), State: state,
	}
}

// observeConns folds a subset of connections into a fresh sketch with
// worker gap semantics (gaps within the subsequence).
func observeConns(t testing.TB, conns []trace.Conn, shard int, cfg stream.Config) *stream.Sketch {
	t.Helper()
	sk, err := stream.NewSketch(stream.ConnSketch, shard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	first := true
	for _, c := range conns {
		o := stream.Obs{Time: c.Start, Value: float64(c.Bytes()), Duration: c.Duration}
		if !first {
			o.Gap, o.HasGap = c.Start-prev, true
		}
		prev, first = c.Start, false
		sk.Observe(o)
	}
	return sk
}

func TestApplyLifecycle(t *testing.T) {
	tr := testTrace(200)
	shards := splitTrace(tr, 2)
	cfg := stream.Config{Seed: 5}
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}

	halfA := observeConns(t, shards[0].Conns[:50], 0, cfg)
	fullA := observeConns(t, shards[0].Conns, 0, cfg)

	// First contact accepts.
	rep, err := c.Apply(uploadFor(t, halfA, "w0", 0, 1, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusAccepted {
		t.Fatalf("first upload: %+v", rep)
	}

	// Identical re-POST (a lost-response retry) is a duplicate no-op.
	rep, err = c.Apply(uploadFor(t, halfA, "w0", 0, 1, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusDuplicate {
		t.Fatalf("re-POST: %+v", rep)
	}

	// Newer (epoch, seq) with new digest advances the state.
	rep, err = c.Apply(uploadFor(t, fullA, "w0", 0, 1, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusAccepted {
		t.Fatalf("second upload: %+v", rep)
	}

	// Out-of-order delivery of the older state is stale, every time.
	for i := 0; i < 2; i++ {
		rep, err = c.Apply(uploadFor(t, halfA, "w0", 0, 1, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != StatusStale || rep.Epoch != 1 || rep.Seq != 2 {
			t.Fatalf("stale verdict %d: %+v", i, rep)
		}
	}

	// A restarted worker re-POSTs its final state under a new epoch:
	// duplicate, but the ordering stamp and final flag must advance so
	// a zombie of the old epoch stays stale.
	rep, err = c.Apply(uploadFor(t, fullA, "w0", 0, 2, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusDuplicate || rep.Epoch != 2 || rep.Seq != 1 {
		t.Fatalf("restart re-POST: %+v", rep)
	}

	res, err := c.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workers) != 1 || !res.Workers[0].Final || res.Workers[0].Epoch != 2 {
		t.Fatalf("results after lifecycle: %+v", res.Workers)
	}
	if res.Workers[0].Uploads != 2 || res.Workers[0].Duplicates != 2 || res.Workers[0].StaleRej != 2 {
		t.Fatalf("delivery accounting: %+v", res.Workers[0])
	}
}

func TestApplyRejections(t *testing.T) {
	tr := testTrace(100)
	cfg := stream.Config{Seed: 5}
	sk := observeConns(t, tr.Conns, 0, cfg)
	c, err := New(Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	good := uploadFor(t, sk, "w0", 0, 1, 1, false)
	if _, err := c.Apply(good); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mut  func(u *Upload)
	}{
		{"wrong proto", func(u *Upload) { u.Proto = "wantraffic-coord/v0" }},
		{"bad worker id", func(u *Upload) { u.Worker = "no spaces allowed" }},
		{"empty worker id", func(u *Upload) { u.Worker = "" }},
		{"negative shard", func(u *Upload) { u.Shard = -1 }},
		{"zero epoch", func(u *Upload) { u.Epoch = 0 }},
		{"zero seq", func(u *Upload) { u.Seq = 0 }},
		{"digest mismatch", func(u *Upload) { u.State = append([]byte(nil), u.State...); u.State[len(u.State)-2] ^= 1 }},
		{"records mismatch", func(u *Upload) { u.Records++ }},
		{"unrestorable state", func(u *Upload) { u.State = []byte(`{"trace_kind":"conn"}`); u.Digest = Digest(u.State) }},
		{"shard owned by other worker", func(u *Upload) { u.Worker = "w1" }},
		{"worker changes shard", func(u *Upload) { u.Shard = 3; u.Seq = 2 }},
	}
	for _, tc := range cases {
		u := good
		tc.mut(&u)
		_, err := c.Apply(u)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		var rej *RejectError
		if !errorsAs(err, &rej) {
			t.Fatalf("%s: error %v is not a RejectError", tc.name, err)
		}
	}
}

// errorsAs avoids importing errors in half the files.
func errorsAs(err error, target *(*RejectError)) bool {
	for err != nil {
		if re, ok := err.(*RejectError); ok {
			*target = re
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestMergePermutationDeterminism: any worker-arrival permutation,
// with duplicate and stale deliveries interleaved, produces merged
// bytes identical to the single-process reference fold.
func TestMergePermutationDeterminism(t *testing.T) {
	const workers = 4
	tr := testTrace(1200)
	shards := splitTrace(tr, workers)
	cfg := stream.Config{Seed: 9}
	want := referenceDigest(t, shards, cfg)

	finals := make([]Upload, workers)
	partials := make([]Upload, workers)
	for i, s := range shards {
		finals[i] = uploadFor(t, observeConns(t, s.Conns, i, cfg), wname(i), i, 1, 2, true)
		partials[i] = uploadFor(t, observeConns(t, s.Conns[:len(s.Conns)/2], i, cfg), wname(i), i, 1, 1, false)
	}

	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 20; round++ {
		c, err := New(Options{ExpectedWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		// A random delivery schedule: partials and finals in any order,
		// with re-deliveries.
		var sched []Upload
		for i := 0; i < workers; i++ {
			sched = append(sched, partials[i], finals[i], finals[i], partials[i])
		}
		rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
		for _, u := range sched {
			if _, err := c.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
		if !c.Complete() {
			t.Fatalf("round %d: not complete after all finals delivered", round)
		}
		_, digest, err := c.Merged()
		if err != nil {
			t.Fatal(err)
		}
		if digest != want {
			t.Fatalf("round %d: merged digest %s, reference %s", round, digest, want)
		}
	}
}

func wname(i int) string { return string(rune('a'+i)) + "-worker" }

func TestSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "coord.snap")
	tr := testTrace(600)
	shards := splitTrace(tr, 3)
	cfg := stream.Config{Seed: 3}
	want := referenceDigest(t, shards, cfg)

	c1, err := New(Options{Snapshot: snap, ExpectedWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range shards {
		if _, err := c1.Apply(uploadFor(t, observeConns(t, s.Conns, i, cfg), wname(i), i, 1, 1, true)); err != nil {
			t.Fatal(err)
		}
	}
	_, d1, err := c1.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != want {
		t.Fatalf("pre-restart digest %s, want %s", d1, want)
	}

	// A restarted coordinator restores the snapshot: same merge, no
	// re-ingest, completeness re-derived.
	c2, err := New(Options{Snapshot: snap, ExpectedWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, d2, err := c2.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if d2 != want {
		t.Fatalf("post-restart digest %s, want %s", d2, want)
	}
	if !c2.Complete() {
		t.Fatal("restored coordinator lost completeness")
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("restored coordinator's Done channel is open")
	}
}

func TestSnapshotCorruptionDegrades(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "coord.snap")
	tr := testTrace(300)
	cfg := stream.Config{Seed: 3}
	sk := observeConns(t, tr.Conns, 0, cfg)

	c1, err := New(Options{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Apply(uploadFor(t, sk, "w0", 0, 1, 1, true)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}

	// Unparsable file: fresh start, not a hard failure (workers can
	// always rebuild the coordinator by re-uploading).
	if err := os.WriteFile(snap, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c2, err := New(Options{Snapshot: snap, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := c2.Results(); err != nil || res.Status != ResultEmpty {
		t.Fatalf("truncated snapshot: results %+v err %v", res, err)
	}

	// A torn entry (state bytes no longer hash to the recorded digest)
	// is dropped; the rest of the snapshot survives.
	var sf snapshotFile
	if err := json.Unmarshal(raw, &sf); err != nil {
		t.Fatal(err)
	}
	sf.Workers[0].Digest = Digest([]byte("not the state"))
	tornRaw, err := json.Marshal(sf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, tornRaw, 0o644); err != nil {
		t.Fatal(err)
	}
	reg3 := obs.NewRegistry()
	c3, err := New(Options{Snapshot: snap, Metrics: reg3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c3.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ResultEmpty {
		t.Fatalf("digest-tampered entry survived restore: %+v", res)
	}
	if got := reg3.Counter("coord.snapshot.dropped").Value(); got != 1 {
		t.Fatalf("dropped counter = %d, want 1", got)
	}

	// Entries a live coordinator would refuse at first contact are
	// dropped too: the restore keeps w0, merges, and admits a new conn
	// worker.
	for _, tc := range conflictingSnapshots(t) {
		if err := os.WriteFile(snap, tc.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		c, err := New(Options{Snapshot: snap, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Results()
		if err != nil {
			t.Fatalf("%s: results: %v", tc.name, err)
		}
		if res.Reporting != 1 || res.Workers[0].Worker != "w0" {
			t.Fatalf("%s: restored workers %+v, want w0 alone", tc.name, res.Workers)
		}
		if got := reg.Counter("coord.snapshot.dropped").Value(); got != 1 {
			t.Fatalf("%s: dropped counter = %d, want 1", tc.name, got)
		}
		if _, err := c.Apply(uploadFor(t, observeConns(t, tr.Conns[:40], 2, cfg), "w2", 2, 1, 1, true)); err != nil {
			t.Fatalf("%s: new conn worker refused: %v", tc.name, err)
		}
	}
}

// namedSnapshot is a snapshot file's bytes under a case name.
type namedSnapshot struct {
	name string
	raw  []byte
}

// conflictingSnapshots returns snapshot files whose entries each pass
// the per-entry checks (digest, restore, record count) but which pair
// w0, a conn worker on shard 0, with an entry Apply would refuse at
// first contact: a packet worker, or a second worker on shard 0.
func conflictingSnapshots(tb testing.TB) []namedSnapshot {
	tb.Helper()
	cfg := stream.Config{Seed: 3}
	conns := testTrace(300).Conns
	pkt, err := stream.NewSketch(stream.PacketSketch, 1, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		pkt.Observe(stream.Obs{Time: float64(i), Value: 512, Gap: 1, HasGap: i > 0})
	}
	w0 := uploadFor(tb, observeConns(tb, conns, 0, cfg), "w0", 0, 1, 1, true)
	var out []namedSnapshot
	for _, second := range []struct {
		name string
		u    Upload
	}{
		{"conn and packet workers", uploadFor(tb, pkt, "w1", 1, 1, 1, true)},
		{"two workers on shard 0", uploadFor(tb, observeConns(tb, conns[:100], 0, cfg), "w1", 0, 1, 1, true)},
	} {
		raw, err := json.Marshal(snapshotFile{Proto: Proto, Workers: []Upload{w0, second.u}})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, namedSnapshot{second.name, raw})
	}
	return out
}

func TestResultsDegradation(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	tr := testTrace(400)
	shards := splitTrace(tr, 2)
	cfg := stream.Config{Seed: 3}

	c, err := New(Options{ExpectedWorkers: 2, StaleAfter: 5 * time.Second, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ResultEmpty || res.Digest != "" {
		t.Fatalf("empty coordinator: %+v", res)
	}

	// One non-final worker: partial, and it goes stale as the clock
	// advances past StaleAfter.
	if _, err := c.Apply(uploadFor(t, observeConns(t, shards[0].Conns[:100], 0, cfg), "w0", 0, 1, 1, false)); err != nil {
		t.Fatal(err)
	}
	now = now.Add(8 * time.Second)
	res, err = c.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ResultPartial || !res.Workers[0].Stale || res.Workers[0].AgeS != 8 {
		t.Fatalf("stale partial: %+v", res.Workers[0])
	}
	if res.Summary == nil || res.Digest == "" {
		t.Fatal("partial results must still serve a merge")
	}

	// Both workers final: complete; finalized workers are never stale.
	if _, err := c.Apply(uploadFor(t, observeConns(t, shards[0].Conns, 0, cfg), "w0", 0, 1, 2, true)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(uploadFor(t, observeConns(t, shards[1].Conns, 1, cfg), "w1", 1, 1, 1, true)); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Minute)
	res, err = c.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ResultComplete || res.Finalized != 2 {
		t.Fatalf("complete: %+v", res)
	}
	for _, w := range res.Workers {
		if w.Stale {
			t.Fatalf("finalized worker marked stale: %+v", w)
		}
	}
	if res.Records != int64(len(tr.Conns)) {
		t.Fatalf("records %d, want %d", res.Records, len(tr.Conns))
	}
}

func TestRefreshGauges(t *testing.T) {
	now := time.Unix(2000, 0)
	reg := obs.NewRegistry()
	tr := testTrace(100)
	cfg := stream.Config{Seed: 3}
	c, err := New(Options{StaleAfter: 5 * time.Second, Clock: func() time.Time { return now }, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(uploadFor(t, observeConns(t, tr.Conns, 0, cfg), "w0", 0, 1, 1, false)); err != nil {
		t.Fatal(err)
	}
	now = now.Add(7 * time.Second)
	c.RefreshGauges()
	if got := reg.Gauge("coord.worker.w0.staleness_s").Value(); got != 7 {
		t.Fatalf("staleness gauge = %v", got)
	}
	if got := reg.Gauge("coord.worker.w0.live").Value(); got != 0 {
		t.Fatalf("live gauge = %v, want 0 (stale)", got)
	}
	if got := reg.Gauge("coord.workers.reporting").Value(); got != 1 {
		t.Fatalf("reporting gauge = %v", got)
	}
}
