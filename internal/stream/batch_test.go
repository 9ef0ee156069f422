package stream

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"wantraffic/internal/trace"
)

// accState serializes an accumulator, failing the test on error.
func accState(t *testing.T, a Accumulator) []byte {
	t.Helper()
	s, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestObserveManyMatchesObserveLoop is the batch-path contract for
// every accumulator: ObserveMany over any partition of a sequence
// must leave byte-identical serialized state to an element-at-a-time
// Observe loop — not approximately equal, byte-identical, because the
// pipeline's canonical-merge determinism rests on it.
func TestObserveManyMatchesObserveLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 100
	}
	// Include values every accumulator treats specially.
	xs[17], xs[300], xs[2999] = 0, -4.5, 1e290

	// Partitions chosen to straddle every internal boundary: GK's
	// buffer flush (bufSize splits), single-element batches, one giant
	// batch, empty batches mixed in, and random cuts.
	partitions := [][]int{
		{len(xs)},
		{1, 1, 1, len(xs) - 3},
		{0, 5, 0, len(xs) - 5, 0},
		{7, 64, 128, 512, len(xs) - 711},
	}
	cuts := []int{0}
	for pos := 0; pos < len(xs); {
		step := 1 + rng.Intn(600)
		if pos+step > len(xs) {
			step = len(xs) - pos
		}
		cuts = append(cuts, step)
		pos += step
	}
	partitions = append(partitions, cuts[1:])

	for _, kind := range fuzzKinds {
		ref, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			ref.Observe(x)
		}
		want := accState(t, ref)
		for pi, part := range partitions {
			got, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			pos := 0
			for _, sz := range part {
				got.ObserveMany(xs[pos : pos+sz])
				pos += sz
			}
			if pos != len(xs) {
				t.Fatalf("partition %d covers %d of %d elements", pi, pos, len(xs))
			}
			if g := accState(t, got); !bytes.Equal(g, want) {
				t.Errorf("%s: ObserveMany partition %d diverges from Observe loop:\n got %s\nwant %s", kind, pi, g, want)
			}
		}
	}
}

// TestSketchObserveBatchMatchesObserve: the columnar batch fold over
// a full Sketch (all dimensions, arrivals, aggvar) must be
// byte-identical to observing each record individually, for both
// trace kinds and any batch partition.
func TestSketchObserveBatchMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	obs := make([]Obs, 3000)
	tm := 0.0
	for i := range obs {
		gap := rng.ExpFloat64() * 3
		tm += gap
		obs[i] = Obs{Time: tm, Value: float64(rng.Int63n(1 << 20)), Duration: rng.ExpFloat64() * 9}
		if i > 0 {
			obs[i].Gap, obs[i].HasGap = gap, true
		}
	}
	for _, kind := range []string{ConnSketch, PacketSketch} {
		ref, err := NewSketch(kind, 2, Config{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range obs {
			ref.Observe(o)
		}
		want, err := ref.State()
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewSketch(kind, 2, Config{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; pos < len(obs); {
			sz := 1 + rng.Intn(400)
			if pos+sz > len(obs) {
				sz = len(obs) - pos
			}
			got.ObserveBatch(obs[pos : pos+sz])
			pos += sz
		}
		g, err := got.State()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, want) {
			t.Errorf("%s sketch: ObserveBatch diverges from Observe loop", kind)
		}
		if got.Records() != ref.Records() {
			t.Errorf("%s sketch: batch records %d, want %d", kind, got.Records(), ref.Records())
		}
	}
}

// referenceMerged replays the pipeline's decomposition contract in
// plain single-threaded code: per ingest call, records are derived to
// observations (gap chain resetting at call boundaries), cut into
// ChunkSize chunks, chunk i dealt to shard i mod Shards, observed
// one at a time, and finally merged in ascending shard order. The
// concurrent pooled pipeline must match this byte for byte.
func referenceMerged(t *testing.T, popts PipelineOptions, calls [][]trace.Conn) *Sketch {
	t.Helper()
	popts = popts.withDefaults()
	shards := make([]*Sketch, popts.Shards)
	for i := range shards {
		s, err := NewSketch(ConnSketch, i, popts.Config)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = s
	}
	for _, conns := range calls {
		next := 0
		for pos := 0; pos < len(conns); pos += popts.ChunkSize {
			end := pos + popts.ChunkSize
			if end > len(conns) {
				end = len(conns)
			}
			sh := shards[next%popts.Shards]
			for i := pos; i < end; i++ {
				c := conns[i]
				o := Obs{Time: c.Start, Value: float64(c.Bytes()), Duration: c.Duration}
				if i > 0 {
					o.Gap, o.HasGap = c.Start-conns[i-1].Start, true
				}
				sh.Observe(o)
			}
			next++
		}
	}
	merged, err := MergeSketches(shards)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestPipelineBatchedMatchesRecordAtATime: for shard counts 1/2/4/8,
// over both text and binary encodings, the pooled-batch pipeline's
// merged sketch must be byte-identical to the single-threaded
// record-at-a-time reference. Run under -race this also exercises the
// pool recycling for races.
func TestPipelineBatchedMatchesRecordAtATime(t *testing.T) {
	tr := testConnTrace(5003) // deliberately not a multiple of any chunk size
	text := encodeConn(t, tr)
	var bin bytes.Buffer
	if err := trace.WriteConnTrace(&bin, tr, true); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		popts := PipelineOptions{Shards: shards, ChunkSize: 97, Config: Config{Seed: 2}}
		want, err := referenceMerged(t, popts, [][]trace.Conn{tr.Conns}).State()
		if err != nil {
			t.Fatal(err)
		}
		for _, enc := range []struct {
			name string
			data []byte
		}{{"text", text}, {"binary", bin.Bytes()}} {
			res, err := Ingest(context.Background(), bytes.NewReader(enc.data), trace.DecodeOptions{}, popts)
			if err != nil {
				t.Fatalf("shards=%d %s: %v", shards, enc.name, err)
			}
			got, err := res.Sketch.State()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("shards=%d %s: pipeline state diverges from record-at-a-time reference", shards, enc.name)
			}
		}
	}
}

// TestPipelinePoisonedPools: pre-seeding the batch pool with
// garbage-filled buffers must not perturb results — every pooled
// buffer is fully overwritten before being read, so stale data can
// never leak into a sketch.
func TestPipelinePoisonedPools(t *testing.T) {
	data := encodeConn(t, testConnTrace(2000))
	popts := PipelineOptions{Shards: 4, ChunkSize: 64, Config: Config{Seed: 8}}
	clean, err := Ingest(context.Background(), bytes.NewReader(data), trace.DecodeOptions{}, popts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Sketch.State()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		poisoned := make([]Obs, 64)
		for j := range poisoned {
			poisoned[j] = Obs{Time: -9e99, Value: 9e99, Duration: 1e300, Gap: -1, HasGap: true, Proto: trace.WWW}
		}
		obsBatchPool.Put(&obsBatch{obs: poisoned})
	}
	res, err := Ingest(context.Background(), bytes.NewReader(data), trace.DecodeOptions{}, popts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Sketch.State()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("poisoned pool buffers leaked into the merged sketch")
	}
}

// TestSessionMultiReader: a persistent session fed a trace in two
// fragments must fold exactly like the reference decomposition over
// the same two calls — batch assignment and the gap chain both reset
// per call, and per-shard state accumulates across calls.
func TestSessionMultiReader(t *testing.T) {
	tr := testConnTrace(3000)
	frag1 := &trace.ConnTrace{Name: tr.Name, Horizon: tr.Horizon, Conns: tr.Conns[:1700]}
	frag2 := &trace.ConnTrace{Name: tr.Name, Horizon: tr.Horizon, Conns: tr.Conns[1700:]}
	popts := PipelineOptions{Shards: 3, ChunkSize: 128, Config: Config{Seed: 4}}

	sess, err := NewSession(ConnSketch, popts)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []*trace.ConnTrace{frag1, frag2} {
		if _, _, err := sess.IngestReader(context.Background(), bytes.NewReader(encodeConn(t, frag)), trace.DecodeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := sess.Merged(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.State()
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceMerged(t, popts, [][]trace.Conn{frag1.Conns, frag2.Conns}).State()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("session over two fragments diverges from two-call reference")
	}
	if n := sess.Records(); n != 3000 {
		t.Errorf("session records = %d, want 3000", n)
	}
}

// TestSessionKindMismatch: feeding the wrong trace kind to a session
// must fail cleanly, not fold garbage.
func TestSessionKindMismatch(t *testing.T) {
	sess, err := NewSession(PacketSketch, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = sess.IngestReader(context.Background(), bytes.NewReader(encodeConn(t, testConnTrace(5))), trace.DecodeOptions{})
	if err == nil {
		t.Fatal("conn trace accepted by packet session")
	}
}

// TestPipelineLenientMidBatchAccounting is the regression test for
// skip accounting inside a batch: malformed records landing mid-chunk
// must each be counted individually, and the kept-record count must
// be exact, not rounded to chunk granularity.
func TestPipelineLenientMidBatchAccounting(t *testing.T) {
	tr := testConnTrace(400)
	lines := bytes.Split(bytes.TrimRight(encodeConn(t, tr), "\n"), []byte("\n"))
	// Mangle records 10, 57, 58 (adjacent, same chunk) and the final
	// record; header lines precede the records, so locate offsets.
	rec := 0
	for i, ln := range lines {
		if len(ln) == 0 || ln[0] == '#' {
			continue
		}
		if rec == 10 || rec == 57 || rec == 58 || rec == 399 {
			lines[i] = []byte("MANGLED not-a-number x y z w")
		}
		rec++
	}
	if rec != 400 {
		t.Fatalf("located %d records, want 400", rec)
	}
	data := bytes.Join(lines, []byte("\n"))
	res, err := Ingest(context.Background(), bytes.NewReader(data),
		trace.DecodeOptions{Lenient: true},
		PipelineOptions{Shards: 4, ChunkSize: 64, Config: Config{Seed: 1}})
	if err != nil {
		t.Fatalf("lenient ingest failed: %v", err)
	}
	if res.Stats.RecordsSkipped != 4 {
		t.Errorf("RecordsSkipped = %d, want 4", res.Stats.RecordsSkipped)
	}
	if res.Stats.RecordsKept != 396 || res.Sketch.Records() != 396 {
		t.Errorf("kept %d / folded %d records, want 396", res.Stats.RecordsKept, res.Sketch.Records())
	}
	// The surviving records must fold exactly as if the mangled ones
	// had never existed: skips happen before chunking, so chunk
	// boundaries shift accordingly.
	kept := make([]trace.Conn, 0, 396)
	for i, c := range tr.Conns {
		if i == 10 || i == 57 || i == 58 || i == 399 {
			continue
		}
		kept = append(kept, c)
	}
	want, err := referenceMerged(t, PipelineOptions{Shards: 4, ChunkSize: 64, Config: Config{Seed: 1}}, [][]trace.Conn{kept}).State()
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Sketch.State()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("lenient mid-batch skip perturbed the surviving records' fold")
	}
}

// TestPipelineBinaryLenientTruncation: a binary trace truncated
// mid-record under lenient decoding must keep every complete record
// and account the remainder as skipped, regardless of where the cut
// falls relative to chunk boundaries.
func TestPipelineBinaryLenientTruncation(t *testing.T) {
	tr := testConnTrace(1000)
	var buf bytes.Buffer
	if err := trace.WriteConnTrace(&buf, tr, true); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, 20, 21} { // bytes clipped from the tail
		res, err := Ingest(context.Background(), bytes.NewReader(full[:len(full)-cut]),
			trace.DecodeOptions{Lenient: true},
			PipelineOptions{Shards: 2, ChunkSize: 128, Config: Config{Seed: 6}})
		if err != nil {
			t.Fatalf("cut=%d: lenient ingest failed: %v", cut, err)
		}
		if res.Stats.RecordsKept != 999 || res.Sketch.Records() != 999 {
			t.Errorf("cut=%d: kept %d / folded %d, want 999", cut, res.Stats.RecordsKept, res.Sketch.Records())
		}
		if res.Stats.RecordsSkipped != 1 {
			t.Errorf("cut=%d: RecordsSkipped = %d, want 1", cut, res.Stats.RecordsSkipped)
		}
	}
}

// TestPipelineAllShardCountsAgreeOnStats: integer statistics must be
// identical across shard counts (moments agree within tolerance, as
// covered by TestPipelineShardedMatchesSingleShard); this pins the
// batched path specifically.
func TestPipelineAllShardCountsAgreeOnStats(t *testing.T) {
	data := encodeConn(t, testConnTrace(2500))
	var base *Result
	for _, shards := range []int{1, 2, 4, 8} {
		res, err := Ingest(context.Background(), bytes.NewReader(data), trace.DecodeOptions{},
			PipelineOptions{Shards: shards, ChunkSize: 200, Config: Config{Seed: 13}})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Sketch.Records() != base.Sketch.Records() {
			t.Errorf("shards=%d: records %d, want %d", shards, res.Sketch.Records(), base.Sketch.Records())
		}
		for _, name := range base.Sketch.DimNames() {
			b, g := base.Sketch.Dim(name), res.Sketch.Dim(name)
			if fmt.Sprint(b.Hist.Buckets()) != fmt.Sprint(g.Hist.Buckets()) {
				t.Errorf("shards=%d: dim %s histogram diverges", shards, name)
			}
		}
	}
}
