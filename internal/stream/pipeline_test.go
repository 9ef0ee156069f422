package stream

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wantraffic/internal/obs"
	"wantraffic/internal/stats"
	"wantraffic/internal/trace"
)

// testConnTrace builds a deterministic connection trace.
func testConnTrace(n int) *trace.ConnTrace {
	rng := rand.New(rand.NewSource(21))
	tr := &trace.ConnTrace{Name: "pipe-test", Horizon: 7200}
	t := 0.0
	protos := []trace.Protocol{trace.Telnet, trace.FTPData, trace.SMTP}
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() * 2
		tr.Conns = append(tr.Conns, trace.Conn{
			Start: t, Duration: rng.ExpFloat64() * 20,
			Proto:     protos[i%len(protos)],
			BytesOrig: rng.Int63n(1 << 18), BytesResp: rng.Int63n(1 << 22),
		})
	}
	return tr
}

func encodeConn(t *testing.T, tr *trace.ConnTrace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteConnTrace(&buf, tr, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPipelineDeterministicAcrossRuns(t *testing.T) {
	data := encodeConn(t, testConnTrace(5000))
	var states [][]byte
	for i := 0; i < 3; i++ {
		res, err := Ingest(context.Background(), bytes.NewReader(data), trace.DecodeOptions{},
			PipelineOptions{Shards: 4, ChunkSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		s, err := res.Sketch.State()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, s)
	}
	if !bytes.Equal(states[0], states[1]) || !bytes.Equal(states[0], states[2]) {
		t.Fatal("repeated ingests of the same bytes produced different sketch state")
	}
}

// TestPipelineShardedMatchesSingleShard: the integer statistics
// (counts, histograms, window and variance-time bins) must be
// identical between a 1-shard and an N-shard ingest; floating moments
// within the documented tolerance.
func TestPipelineShardedMatchesSingleShard(t *testing.T) {
	tr := testConnTrace(8000)
	data := encodeConn(t, tr)
	one, err := Ingest(context.Background(), bytes.NewReader(data), trace.DecodeOptions{},
		PipelineOptions{Shards: 1, ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Ingest(context.Background(), bytes.NewReader(data), trace.DecodeOptions{},
		PipelineOptions{Shards: 6, ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if one.Sketch.Records() != many.Sketch.Records() {
		t.Fatalf("records %d vs %d", one.Sketch.Records(), many.Sketch.Records())
	}
	if !floatSliceEq(one.Sketch.Arrivals().Counts(), many.Sketch.Arrivals().Counts()) {
		t.Fatal("window counts differ between shard counts")
	}
	if !floatSliceEq(one.Sketch.AggVar().Counts(), many.Sketch.AggVar().Counts()) {
		t.Fatal("aggvar counts differ between shard counts")
	}
	for _, name := range one.Sketch.DimNames() {
		a, b := one.Sketch.Dim(name), many.Sketch.Dim(name)
		if a.Moments.Count() != b.Moments.Count() {
			t.Fatalf("%s: counts differ", name)
		}
		if e := relErr(a.Moments.Mean(), b.Moments.Mean()); e > momentsTol {
			t.Errorf("%s: means differ by %g", name, e)
		}
		if e := relErr(a.Moments.Variance(), b.Moments.Variance()); e > momentsTol {
			t.Errorf("%s: variances differ by %g", name, e)
		}
		if a.Hist.Count() != b.Hist.Count() {
			t.Fatalf("%s: histogram totals differ", name)
		}
		for _, bk := range a.Hist.Buckets() {
			if b.Hist.BucketCount(bk.Exp) != bk.Count {
				t.Fatalf("%s: histogram bucket %d differs", name, bk.Exp)
			}
		}
	}
}

// TestPipelineMatchesBatchStats: streamed statistics agree with the
// batch internal/stats computations over the materialized trace.
func TestPipelineMatchesBatchStats(t *testing.T) {
	tr := testConnTrace(8000)
	data := encodeConn(t, tr)
	res, err := Ingest(context.Background(), bytes.NewReader(data), trace.DecodeOptions{},
		PipelineOptions{Shards: 4, Config: Config{Horizon: tr.Horizon}})
	if err != nil {
		t.Fatal(err)
	}
	var byteVals, times []float64
	for _, c := range tr.Conns {
		byteVals = append(byteVals, float64(c.Bytes()))
		times = append(times, c.Start)
	}
	d := res.Sketch.Dim("bytes")
	if e := relErr(d.Moments.Mean(), stats.Mean(byteVals)); e > momentsTol {
		t.Errorf("bytes mean off by %g", e)
	}
	if e := relErr(d.Moments.Variance(), stats.Variance(byteVals)); e > momentsTol {
		t.Errorf("bytes variance off by %g", e)
	}
	if !floatSliceEq(res.Sketch.AggVar().Counts(), stats.CountProcess(times, 1, tr.Horizon)) {
		t.Error("aggvar counts differ from batch CountProcess")
	}
}

func TestPipelineBinaryAndHeader(t *testing.T) {
	tr := testConnTrace(3000)
	var buf bytes.Buffer
	if err := trace.WriteConnTrace(&buf, tr, true); err != nil {
		t.Fatal(err)
	}
	res, err := Ingest(context.Background(), &buf, trace.DecodeOptions{}, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Header.Name != "pipe-test" || !res.Header.Binary {
		t.Fatalf("header %+v", res.Header)
	}
	if res.Sketch.Records() != 3000 || res.Stats.RecordsKept != 3000 {
		t.Fatalf("records %d / kept %d", res.Sketch.Records(), res.Stats.RecordsKept)
	}
}

// TestPipelinePartialOnStrictError: a malformed record mid-stream in
// strict mode must surface the error AND a merged sketch covering
// exactly the records decoded before the failure.
func TestPipelinePartialOnStrictError(t *testing.T) {
	text := "#conntrace broken 100\n" +
		"1.0 0.5 telnet 10 20 0\n" +
		"2.0 0.5 telnet 10 20 0\n" +
		"MANGLED LINE\n" +
		"3.0 0.5 telnet 10 20 0\n"
	res, err := Ingest(context.Background(), strings.NewReader(text), trace.DecodeOptions{}, PipelineOptions{})
	if err == nil {
		t.Fatal("strict decode of malformed trace should error")
	}
	if res == nil {
		t.Fatal("partial result must still be returned")
	}
	if res.Sketch.Records() != int64(res.Stats.RecordsKept) {
		t.Fatalf("sketch covers %d records, decoder kept %d", res.Sketch.Records(), res.Stats.RecordsKept)
	}
	if res.Sketch.Records() != 2 {
		t.Fatalf("expected the 2 records before the fault, got %d", res.Sketch.Records())
	}
}

func TestPipelineLenientAccounting(t *testing.T) {
	text := "#conntrace broken 100\n" +
		"1.0 0.5 telnet 10 20 0\n" +
		"MANGLED LINE\n" +
		"3.0 0.5 telnet 10 20 0\n"
	res, err := Ingest(context.Background(), strings.NewReader(text),
		trace.DecodeOptions{Lenient: true}, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RecordsSkipped != 1 || res.Sketch.Records() != 2 {
		t.Fatalf("skipped %d records %d", res.Stats.RecordsSkipped, res.Sketch.Records())
	}
}

func TestPipelineMetricsAndSpans(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracerClock(obs.StepClock(obs.TestEpoch, 0))
	ctx := obs.WithTracer(context.Background(), tracer)
	data := encodeConn(t, testConnTrace(1000))
	res, err := Ingest(ctx, bytes.NewReader(data), trace.DecodeOptions{Metrics: reg},
		PipelineOptions{Shards: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("stream.records").Value(); got != res.Sketch.Records() {
		t.Fatalf("stream.records %d, want %d", got, res.Sketch.Records())
	}
	if reg.Counter("stream.chunks").Value() == 0 || reg.Counter("stream.shards").Value() != 3 {
		t.Fatal("chunk/shard metrics missing")
	}
	tree := tracer.Tree()
	for _, want := range []string{"stream.ingest", "stream.shard", "stream.merge"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("span %q missing from:\n%s", want, tree)
		}
	}
}

// TestPipelineLiveMetrics covers the instruments the monitor's
// /metrics endpoint reads mid-run: the live ingest counter, the
// per-shard work accounting, and the merge-phase histogram. The
// chunk→shard assignment is position-based, so per-shard record
// counts are deterministic for a fixed trace/shards/chunk config.
func TestPipelineLiveMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	data := encodeConn(t, testConnTrace(1000))
	res, err := Ingest(context.Background(), bytes.NewReader(data),
		trace.DecodeOptions{}, PipelineOptions{Shards: 3, ChunkSize: 64, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("stream.records.ingested").Value(); got != res.Sketch.Records() {
		t.Errorf("stream.records.ingested %d, want %d", got, res.Sketch.Records())
	}
	var shardSum int64
	for s := 0; s < 3; s++ {
		n := reg.Counter(fmt.Sprintf("stream.shard%d.records", s)).Value()
		if n == 0 {
			t.Errorf("shard %d saw no records", s)
		}
		if reg.Counter(fmt.Sprintf("stream.shard%d.bytes", s)).Value() == 0 {
			t.Errorf("shard %d counted no bytes", s)
		}
		shardSum += n
	}
	if shardSum != res.Sketch.Records() {
		t.Errorf("per-shard records sum to %d, want %d", shardSum, res.Sketch.Records())
	}
	if reg.Histogram("stream.merge_ms", nil).Count() != 1 {
		t.Error("stream.merge_ms not observed exactly once")
	}
	if got := reg.Gauge("stream.shards.inflight").Value(); got != 0 {
		t.Errorf("stream.shards.inflight = %g after completion, want 0", got)
	}
	if got := reg.Gauge("stream.queue.depth").Value(); got != 0 {
		t.Errorf("stream.queue.depth = %g after completion, want 0", got)
	}
}

// TestMergeSketchesPermutationInvariance is the acceptance criterion:
// merging the same shard states in any arrival order must produce
// byte-identical serialized state.
func TestMergeSketchesPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shards := make([]*Sketch, 5)
	for i := range shards {
		s, err := NewSketch(PacketSketch, i, Config{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = s
	}
	tt := 0.0
	for i := 0; i < 20000; i++ {
		tt += rng.ExpFloat64() * 0.01
		shards[i%5].Observe(Obs{Time: tt, Value: float64(1 + rng.Intn(1460)), Gap: rng.ExpFloat64(), HasGap: i > 0})
	}
	perms := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {1, 4, 0, 3, 2}}
	var first []byte
	for _, p := range perms {
		ordered := make([]*Sketch, len(p))
		for i, j := range p {
			ordered[i] = shards[j]
		}
		merged, err := MergeSketches(ordered)
		if err != nil {
			t.Fatal(err)
		}
		state, err := merged.State()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = state
		} else if !bytes.Equal(first, state) {
			t.Fatalf("permutation %v produced different merged state", p)
		}
	}
	// The inputs must not have been mutated by the merges.
	if shards[0].Records() != 4000 {
		t.Fatalf("MergeSketches mutated an input shard: %d records", shards[0].Records())
	}
}

func TestSketchRoundTripAndMismatch(t *testing.T) {
	s, err := NewSketch(ConnSketch, 0, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.Observe(Obs{Time: float64(i), Value: float64(i * 7), Duration: 1, Gap: 1, HasGap: i > 0})
	}
	state, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	back, err := RestoreSketch(state)
	if err != nil {
		t.Fatal(err)
	}
	state2, err := back.State()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, state2) {
		t.Fatal("sketch state round-trip not byte-identical")
	}
	p, err := NewSketch(PacketSketch, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(p); err == nil {
		t.Fatal("merging packet sketch into conn sketch should error")
	}
	if _, err := MergeSketches(nil); err == nil {
		t.Fatal("merging zero sketches should error")
	}
	if _, err := NewSketch("bogus", 0, Config{}); err == nil {
		t.Fatal("unknown trace kind should error")
	}
	if _, err := RestoreSketch([]byte("{not json")); err == nil {
		t.Fatal("corrupt sketch state should error")
	}
}

// TestSketchSummaryFinite: summaries of empty and populated sketches
// always marshal (no NaN/Inf leaks into JSON).
func TestSketchSummaryFinite(t *testing.T) {
	for _, kind := range []string{ConnSketch, PacketSketch} {
		s, err := NewSketch(kind, 0, Config{})
		if err != nil {
			t.Fatal(err)
		}
		sum := s.Summarize() // empty
		if sum.Records != 0 {
			t.Fatal("empty summary has records")
		}
		s.Observe(Obs{Time: 1, Value: 10, Duration: 2})
		sum = s.Summarize()
		if sum.Records != 1 {
			t.Fatalf("records %d", sum.Records)
		}
	}
}
