package coord

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// benchCorpus builds the 10⁶-record connection corpus once per
// process; the per-fleet-size shard files are derived from it.
var benchCorpus struct {
	once  sync.Once
	conns []trace.Conn
}

func benchConns() []trace.Conn {
	benchCorpus.once.Do(func() {
		const n = 1_000_000
		conns := make([]trace.Conn, n)
		for i := range conns {
			conns[i] = trace.Conn{
				Start:     float64(i) * 0.086,
				Duration:  0.5 + float64(i%97)*0.21,
				Proto:     trace.Protocol(i % 9),
				BytesOrig: int64(64 + (i*131)%64000),
				BytesResp: int64(128 + (i*197)%131000),
			}
		}
		benchCorpus.conns = conns
	})
	return benchCorpus.conns
}

// benchShardFiles writes the corpus's record-level round-robin
// decomposition into n binary shard files.
func benchShardFiles(b *testing.B, dir string, n int) []string {
	b.Helper()
	conns := benchConns()
	paths := make([]string, n)
	for i := 0; i < n; i++ {
		tr := &trace.ConnTrace{Name: "bench", Horizon: float64(len(conns)) * 0.086}
		for j := i; j < len(conns); j += n {
			tr.Conns = append(tr.Conns, conns[j])
		}
		var buf bytes.Buffer
		if err := trace.WriteConnTrace(&buf, tr, true); err != nil {
			b.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.wct", i))
		if err := os.WriteFile(paths[i], buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return paths
}

// BenchmarkDistWorkers measures one full distributed run over the
// 10⁶-record corpus: an in-process coordinator behind a real HTTP
// server, N concurrent workers each ingesting its shard file and
// uploading mid-run plus final state, then the canonical merge. The
// fleet sizes share one corpus, so the rows are directly comparable;
// on a single-core host the concurrency is time-sliced and the rows
// measure coordination overhead rather than parallel speedup.
func BenchmarkDistWorkers(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", n), func(b *testing.B) {
			paths := benchShardFiles(b, b.TempDir(), n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := New(Options{ExpectedWorkers: n})
				if err != nil {
					b.Fatal(err)
				}
				mux := http.NewServeMux()
				for path, h := range c.Handlers(nil) {
					mux.Handle(path, h)
				}
				srv := httptest.NewServer(mux)
				var wg sync.WaitGroup
				errs := make([]error, n)
				for w := 0; w < n; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						_, errs[w] = RunWorker(context.Background(), WorkerOptions{
							ID: fmt.Sprintf("w%d", w), Shard: w, TracePath: paths[w],
							Config:      stream.Config{Seed: 1},
							UploadEvery: 250_000,
							Client:      &Client{Base: srv.URL, Seed: uint64(w + 1)},
						})
					}(w)
				}
				wg.Wait()
				srv.Close()
				for w, err := range errs {
					if err != nil {
						b.Fatalf("worker %d: %v", w, err)
					}
				}
				if _, _, err := c.Merged(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApplyUpload isolates the coordinator's accept path: digest
// verification, sketch restore, stamp bookkeeping (no HTTP). Two
// uploads: a 10⁴-record shard with 1.5 s mean gaps (about 15 000 s of
// window counts), and one at live_fleet's shape, 2¹⁹ records over
// 720 s, whose reservoirs have drawn for most of their observations.
func BenchmarkApplyUpload(b *testing.B) {
	for _, bc := range []struct {
		name string
		sk   func() *stream.Sketch
	}{
		{"10k", func() *stream.Sketch { return shardSketch(b, testTrace(10_000), 0, stream.Config{Seed: 1}) }},
		{"fleet", func() *stream.Sketch { return fleetShard(b) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sk := bc.sk()
			state, err := sk.State()
			if err != nil {
				b.Fatal(err)
			}
			u := Upload{
				Proto: Proto, Worker: "w0", Shard: 0, Records: sk.Records(),
				Digest: Digest(state), State: state,
			}
			c, err := New(Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(state)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u.Epoch, u.Seq = 1, int64(i+1)
				if _, err := c.Apply(u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fleetShard is one live_fleet worker's sketch: 2¹⁹ connections over
// 720 trace seconds.
func fleetShard(b *testing.B) *stream.Sketch {
	const n = 1 << 19
	rng := rand.New(rand.NewSource(19))
	conns := make([]trace.Conn, n)
	t := 0.0
	for i := range conns {
		t += rng.ExpFloat64() * 720 / n
		conns[i] = trace.Conn{
			Start: t, Duration: rng.ExpFloat64() * 30,
			Proto: trace.Protocol(i % 9), BytesOrig: rng.Int63n(1 << 16), BytesResp: rng.Int63n(1 << 20),
		}
	}
	sk, err := stream.NewSketch(stream.ConnSketch, 0, stream.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]stream.Obs, 0, stream.DefaultChunkSize)
	for i, c := range conns {
		o := stream.Obs{Time: c.Start, Value: float64(c.Bytes()), Duration: c.Duration, Proto: c.Proto}
		if i > 0 {
			o.Gap, o.HasGap = c.Start-conns[i-1].Start, true
		}
		if obs = append(obs, o); len(obs) == cap(obs) || i == n-1 {
			sk.ObserveBatch(obs)
			obs = obs[:0]
		}
	}
	return sk
}

// BenchmarkMergedResults isolates the canonical merge + summarize of
// a 4-worker fleet's final states.
func BenchmarkMergedResults(b *testing.B) {
	tr := testTrace(40_000)
	shards := splitTrace(tr, 4)
	c, err := New(Options{ExpectedWorkers: 4})
	if err != nil {
		b.Fatal(err)
	}
	for i, sh := range shards {
		sk := shardSketch(b, sh, i, stream.Config{Seed: 1})
		state, err := sk.State()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Apply(Upload{
			Proto: Proto, Worker: wname(i), Shard: i, Epoch: 1, Seq: 1,
			Records: sk.Records(), Final: true, Digest: Digest(state), State: state,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Results(); err != nil {
			b.Fatal(err)
		}
	}
}
