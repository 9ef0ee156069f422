package observe

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"

	"wantraffic/internal/load"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// The observatory costs DESIGN.md §14 quotes come from these
// benchmarks (go test -bench . -benchtime 2s ./internal/observe/; on a
// single-core 2.1 GHz Xeon: ~101 ns per record, ~14 µs per window
// close): the per-record cost of running the full observatory, the
// per-window estimator recompute, the detector update alone, and the
// overhead of bolting the observatory onto a plain pipeline ingest.

func benchConns(n int) []trace.Conn {
	rng := rand.New(rand.NewSource(5))
	out := make([]trace.Conn, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / 40 // 40 records/s → ~200 per default window
		out[i] = trace.Conn{
			Start: t, Duration: rng.ExpFloat64() * 5,
			Proto:     trace.Protocol(1 + i%8),
			BytesOrig: 1 + int64(rng.ExpFloat64()*300),
			BytesResp: 1 + int64(rng.ExpFloat64()*2000),
		}
	}
	return out
}

// BenchmarkObserveConn is the observatory's full per-record cost,
// window closes amortized in at the default density (~200 records per
// window).
func BenchmarkObserveConn(b *testing.B) {
	conns := benchConns(100000)
	o := New(Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.ObserveConn(conns[i%len(conns)])
	}
}

// BenchmarkWindowClose isolates the estimator recompute: one record
// per window, so every observation forces a close (rate, dispersion,
// lag-1, variance-time slope, Hill, quantiles, verdict, detectors).
func BenchmarkWindowClose(b *testing.B) {
	o := New(Options{})
	w := o.Options().Window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.ObserveConn(trace.Conn{Start: (float64(i) + 0.5) * w, Proto: trace.WWW, BytesResp: int64(100 + i%1000)})
	}
}

// BenchmarkPageHinkleyUpdate is the detector alone.
func BenchmarkPageHinkleyUpdate(b *testing.B) {
	det := NewPageHinkley(0.1, 1e12, 8, 4) // threshold unreachably high: no resets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Update(10 + float64(i%7))
	}
}

// BenchmarkPipelineIngest is the plain sharded-pipeline baseline over
// the same trace bytes the replayer consumes — the denominator for
// the observatory-overhead ratio (477 ns per record on the same
// host, against which the observatory's ~101 ns adds 21.3 %).
func BenchmarkPipelineIngest(b *testing.B) {
	tr := &trace.ConnTrace{Name: "bench", Horizon: 2500, Conns: benchConns(50000)}
	var buf bytes.Buffer
	if err := trace.WriteConnTrace(&buf, tr, true); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := stream.Ingest(context.Background(), bytes.NewReader(buf.Bytes()),
			trace.DecodeOptions{}, stream.PipelineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Sketch.Records() != int64(len(tr.Conns)) {
			b.Fatal("short ingest")
		}
	}
}

// BenchmarkReplayFullSpeed measures the replayer's decode+observe
// throughput over a binary trace.
func BenchmarkReplayFullSpeed(b *testing.B) {
	tr := &trace.ConnTrace{Name: "bench", Horizon: 2500, Conns: benchConns(50000)}
	var buf bytes.Buffer
	if err := trace.WriteConnTrace(&buf, tr, true); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := New(Options{})
		if _, err := Replay(bytes.NewReader(buf.Bytes()), o, ReplayOptions{Flush: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateReplayPipe is `wanload | wanstream -follow` at full
// speed in one process: FULL-TEL plus Pareto-renewal packet users in
// text framing (wanbench's bench-pkt mix, 180 trace seconds, about
// 128 000 records) through load.Daemon.Run → io.Pipe → Replay. At
// -cpu 1 the generator and the replayer share one CPU; at -cpu 2 the
// rate shows how far the pipe handoff lets them overlap.
func BenchmarkGenerateReplayPipe(b *testing.B) {
	sc := &load.Scenario{
		Name: "bench-pkt", Kind: load.KindPacket, Horizon: 180,
		Sources: []load.SourceSpec{
			{Name: "telnet", Proto: "TELNET", Pattern: load.PatternFullTel, Users: 512, Rate: 1.5},
			{Name: "www", Proto: "WWW", Pattern: load.PatternPareto, Users: 512, Rate: 430},
		},
	}
	var records int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := load.New(sc, load.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		o := New(Options{})
		b.StartTimer()
		pr, pw := io.Pipe()
		go func() {
			_, err := d.Run(context.Background(), pw)
			pw.CloseWithError(err)
		}()
		st, err := Replay(pr, o, ReplayOptions{Flush: true})
		pr.CloseWithError(err)
		if err != nil {
			b.Fatal(err)
		}
		records += st.Records
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}
