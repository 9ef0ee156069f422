package stream

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"

	"wantraffic/internal/obs"
	"wantraffic/internal/trace"
)

// The allocation-regression suite. These budgets are the zero-alloc
// ingest contract enforced at test time, not just benchmark time: a
// change that reintroduces per-record or per-line allocations fails
// `go test` here long before anyone reads a benchmark diff. All
// budgets are steady-state — pools warmed, accumulator buffers grown
// — because that is the regime the 100k+-record traces run in.
//
// Skipped under -race (the detector instruments allocations) and on
// GOMAXPROCS=1-incapable setups; CI runs them in a dedicated job
// without -race.

// allocsPerRun pins the goroutine to one P for stable accounting and
// returns the average allocations per call.
func allocsPerRun(t *testing.T, runs int, f func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return testing.AllocsPerRun(runs, f)
}

// TestAllocObserveMany: a warm ObserveMany must not allocate at all
// for the fixed-footprint accumulators, and must stay within a small
// amortized budget for the growing ones (GK rebuilds its tuple list
// from pooled scratch; the window/aggvar counters extend their bin
// vectors as the horizon advances).
func TestAllocObserveMany(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 50
	}
	budgets := map[string]float64{
		momentsKind:   0,
		reservoirKind: 0,
		log2Kind:      0, // map writes to existing buckets
		windowKind:    0, // bins preallocated by the warmup below
		aggVarKind:    0,
		gkKind:        2, // one tuple-array grow + one compress append, amortized
	}
	for _, kind := range fuzzKinds {
		acc, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		acc.ObserveMany(xs) // warm: grow buffers, populate buckets
		got := allocsPerRun(t, 50, func() { acc.ObserveMany(xs) })
		if budget := budgets[kind]; got > budget {
			t.Errorf("%s: ObserveMany allocates %.1f per 1024-obs batch, budget %.0f", kind, got, budget)
		}
	}
}

// TestAllocSketchObserveBatch: the full composite sketch — every
// dimension, arrivals, aggvar — must stay within a handful of
// amortized allocations per warm batch (GK growth plus scratch
// columns extending).
func TestAllocSketchObserveBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	obs := make([]Obs, 512)
	tm := 0.0
	for i := range obs {
		gap := rng.ExpFloat64()
		tm += gap
		obs[i] = Obs{Time: tm, Value: float64(rng.Int63n(1 << 16)), Duration: rng.ExpFloat64() * 5, Gap: gap, HasGap: i > 0}
	}
	s, err := NewSketch(ConnSketch, 0, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.ObserveBatch(obs) // warm scratch and accumulators
	got := allocsPerRun(t, 50, func() { s.ObserveBatch(obs) })
	if got > 8 {
		t.Errorf("Sketch.ObserveBatch allocates %.1f per 512-obs batch, budget 8", got)
	}
}

// TestAllocPipelinePer10k is the headline budget from the tracking
// issue: fewer than 100 allocations per 10k records through the full
// sharded pipeline — scanner, batch fan-out, shard fold — in the
// steady state of a persistent session reading binary input. The
// budget buys GK growth and goroutine startup, nothing per-record.
// Watermark stamping rides inside the same budget: the per-batch
// Stamp must not add a single allocation.
func TestAllocPipelinePer10k(t *testing.T) {
	tr := testConnTrace(10000)
	var buf bytes.Buffer
	if err := trace.WriteConnTraceBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	marks := obs.NewWatermarks(obs.NewRegistry(), nil)
	sess, err := NewSession(ConnSketch, PipelineOptions{Config: Config{Seed: 7}, Marks: marks})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := bytes.NewReader(data)
	if _, _, err := sess.IngestReader(ctx, r, trace.DecodeOptions{}); err != nil {
		t.Fatal(err) // warm pools, scanner buffers, accumulators
	}
	got := allocsPerRun(t, 20, func() {
		r.Reset(data)
		if _, _, err := sess.IngestReader(ctx, r, trace.DecodeOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if got >= 100 {
		t.Errorf("pipeline ingest allocates %.1f per 10k records, budget <100", got)
	}
	if n := sess.Records(); n < 10000 {
		t.Fatalf("session folded only %d records", n)
	}
}

// TestAllocScanBatch: the chunked binary scanner must allocate only
// its one decode chunk per scanner, nothing per batch; the text
// scanner nothing per line once its field buffer is grown.
func TestAllocScanBatch(t *testing.T) {
	tr := testConnTrace(4096)
	var bin bytes.Buffer
	if err := trace.WriteConnTraceBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	text := encodeConn(t, tr)
	recs := make([]trace.Conn, 512)
	for _, tc := range []struct {
		name   string
		data   []byte
		binary bool
		budget float64
	}{
		{"binary", bin.Bytes(), true, 3},
		{"text", text, false, 3}, // bufio+field buffers amortize to ~0; budget covers scanner setup drift
	} {
		data := tc.data
		binary := tc.binary
		got := allocsPerRun(t, 20, func() {
			br := scanReady(t, data, binary)
			for {
				_, err := br.ScanBatch(recs)
				if err != nil {
					break
				}
			}
		})
		// Per full 4096-record trace including scanner construction:
		// the budget is per scan, so per record it is ~0.005.
		if got > 40 {
			t.Errorf("%s: ScanBatch over 4096 records allocates %.1f, budget 40", tc.name, got)
		}
	}
}

// scanReady builds a conn scanner over data with the header consumed.
func scanReady(t *testing.T, data []byte, binary bool) *trace.ConnScanner {
	t.Helper()
	br := bytes.NewReader(data)
	if binary {
		return trace.NewConnBinaryScanner(br, trace.DecodeOptions{})
	}
	return trace.NewConnScanner(br, trace.DecodeOptions{})
}

// TestAllocSourceNext: once its record buffer exists, a Source decodes
// and derives observations without allocating, in either encoding.
func TestAllocSourceNext(t *testing.T) {
	tr := testConnTrace(16384)
	var bin bytes.Buffer
	if err := trace.WriteConnTraceBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{{"binary", bin.Bytes()}, {"text", encodeConn(t, tr)}} {
		src, err := NewSource(bytes.NewReader(tc.data), trace.DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Obs, 512)
		if _, err := src.Next(out); err != nil { // warm: record buffer, field buffers
			t.Fatal(err)
		}
		got := allocsPerRun(t, 20, func() {
			if n, err := src.Next(out); n != len(out) || err != nil {
				t.Fatalf("%s: Next = %d, %v", tc.name, n, err)
			}
		})
		if got != 0 {
			t.Errorf("%s: warm Source.Next allocates %.1f per 512-record read, budget 0", tc.name, got)
		}
	}
}
