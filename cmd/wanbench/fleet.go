package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"wantraffic/internal/coord"
	"wantraffic/internal/load"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// fleetWorkers is one worker per CPU of the 2-CPU host the baseline
// was measured on.
const fleetWorkers = 2

// live_fleet is `wancoord serve` with `wanstream -coord` workers,
// closed loop: coord.New behind an httptest.Server, two RunWorker
// goroutines uploading every 16384 records, then Results. It is the
// workload that exercises state encoding, upload, digest checking,
// restore and merge many times per pass; live_sketch touches them once.
func runLiveFleet(cfg config) (*result, error) {
	r := &result{workload: "live_fleet"}
	in, setupS, err := timeSetups(cfg.size.setups, func() (fleetInput, error) {
		return fleetSetup(cfg.work, cfg.seed, cfg.size.fleetHorizon)
	})
	if err != nil {
		return nil, err
	}

	var thrU, thrT, latencies []float64
	var traced []fleetStats
	err = repeat(cfg, cfg.size.minPasses, func(tr *benchTracer) error {
		p, err := fleetPass(in, cfg.size.uploadEvery, tr)
		if err != nil {
			return err
		}
		r.check(p.status == coord.ResultComplete && p.digest == in.digest && p.records == in.records,
			"live_fleet: results %s, merged_sha256 %s over %d records; reference %s over %d",
			p.status, p.digest, p.records, in.digest, in.records)
		thr := float64(p.records) / p.wall.Seconds()
		latencies = append(latencies, ms(p.latency))
		if tr == nil {
			thrU = append(thrU, thr)
		} else {
			thrT = append(thrT, thr)
			traced = append(traced, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	checkPinned(r, "live_fleet", cfg.seed, cfg.size.fleetHorizon, in.digest)
	r.note("merged_sha256 %s over %d records", in.digest, in.records)

	if cfg.traced {
		r.set("trace_overhead_pct", overheadPct(thrU, thrT))
		r.set("trace.bytes_per_record", ratio(float64(in.bytes), float64(in.records)))
		r.set("coord.worker_busy_ratio", medianOf(traced, func(p fleetStats) float64 {
			return 1 - ratio(p.rtt.total.Seconds(), p.workerWall.Seconds())
		}))
		r.set("coord.accept_ratio", medianOf(traced, func(p fleetStats) float64 { return ratio(float64(p.accepted), float64(p.rtt.n)) }))
		r.set("coord.uploads", medianOf(traced, func(p fleetStats) float64 { return float64(p.uploads) }))
		r.set("coord.upload_bytes", medianOf(traced, func(p fleetStats) float64 { return float64(p.rtt.bytes) }))
		r.set("coord.retries", medianOf(traced, func(p fleetStats) float64 { return float64(p.rtt.n - p.uploads) }))
		var rtts, handler []float64
		for _, p := range traced {
			rtts = append(rtts, p.rtt.samples...)
			handler = append(handler, p.handler.samples...)
		}
		r.extra("coord.upload_rtt_ms.p50", median(rtts), "ms")
		r.extra("coord.upload_rtt_ms.p90", percentile(rtts, 0.9), "ms")
		r.extra("coord.handler_ms.p50", median(handler), "ms")
		r.extra("coord.handler_ms.p90", percentile(handler, 0.9), "ms")
		r.extra("coord.results_ms", medianOf(traced, func(p fleetStats) float64 { return ms(p.latency) }), "ms")
		if err := runLedger(cfg, r); err != nil {
			return nil, err
		}
	}
	return r, finish(r, cfg, setupS, thrU, latencies)
}

// fleetInput is the set-up's output: the shard files and the digest a
// correct fleet must reproduce.
type fleetInput struct {
	paths          []string
	records, bytes int64
	digest         string
}

// fleetSetup streams bench-conn through a scanner into binary shard
// files, dealing records round-robin one batch at a time (constant
// memory), then computes the reference: one single-shard Session per
// file with ShardOffset set to the file's index, merged by
// MergeSketches — what `wanstream shard0 shard1` prints.
func fleetSetup(dir string, seed int64, horizon float64) (fleetInput, error) {
	var in fleetInput
	sc := connScenario(horizon)
	d, err := load.New(sc, load.Options{Seed: seed, Binary: true})
	if err != nil {
		return in, err
	}
	pr, pw := io.Pipe()
	gen := make(chan error, 1)
	go func() {
		_, err := d.Run(context.Background(), pw)
		pw.CloseWithError(err)
		gen <- err
	}()
	in.paths, in.records, err = splitShards(pr, dir, sc.Name, horizon)
	pr.CloseWithError(err)
	if gerr := <-gen; gerr != nil {
		return in, fmt.Errorf("live_fleet: generator: %w", gerr)
	}
	if err != nil {
		return in, err
	}

	sketches := make([]*stream.Sketch, len(in.paths))
	for i, path := range in.paths {
		if sketches[i], err = ingestShard(path, i); err != nil {
			return in, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return in, err
		}
		in.bytes += fi.Size()
	}
	merged, err := stream.MergeSketches(sketches)
	if err != nil {
		return in, err
	}
	state, err := merged.State()
	if err != nil {
		return in, err
	}
	in.digest = coord.Digest(state)
	return in, nil
}

func splitShards(r io.Reader, dir, name string, horizon float64) ([]string, int64, error) {
	paths := make([]string, fleetWorkers)
	files := make([]*os.File, fleetWorkers)
	encs := make([]*trace.ConnEncoder, fleetWorkers)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.wct", i))
		f, err := os.Create(paths[i])
		if err != nil {
			return nil, 0, err
		}
		defer f.Close() // error paths; the success path checks Close below
		files[i] = f
		if encs[i], err = trace.NewConnEncoder(f, name, horizon, true); err != nil {
			return nil, 0, err
		}
	}
	sc := trace.NewConnBinaryScanner(r, trace.DecodeOptions{})
	buf := make([]trace.Conn, stream.DefaultChunkSize)
	var n int64
	for {
		k, err := sc.ScanBatch(buf)
		for _, c := range buf[:k] {
			if werr := encs[n%fleetWorkers].Write(c); werr != nil {
				return nil, 0, werr
			}
			n++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
	}
	for i, e := range encs {
		if err := e.Flush(); err != nil {
			return nil, 0, err
		}
		if err := files[i].Close(); err != nil {
			return nil, 0, err
		}
	}
	return paths, n, nil
}

func ingestShard(path string, shard int) (*stream.Sketch, error) {
	sess, err := stream.NewSession(stream.ConnSketch, stream.PipelineOptions{Shards: 1, ShardOffset: shard})
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, _, err := sess.IngestReader(context.Background(), f, trace.DecodeOptions{}); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sess.Merged(context.Background())
}

// fleetStats is one live_fleet pass.
type fleetStats struct {
	status, digest string
	records        int64
	wall           time.Duration // coord.New → Results returned
	latency        time.Duration // last worker returned → Results returned

	// Traced passes only.
	rtt, handler      *stopwatch
	workerWall        time.Duration // summed over workers
	uploads, accepted int64
}

func fleetPass(in fleetInput, uploadEvery int64, tr *benchTracer) (fleetStats, error) {
	var p fleetStats
	root := tr.start(nil, "live_fleet.pass")
	start := time.Now()
	c, err := coord.New(coord.Options{ExpectedWorkers: fleetWorkers})
	if err != nil {
		return p, err
	}
	p.rtt, p.handler = &stopwatch{keep: true}, &stopwatch{keep: true}
	mux := http.NewServeMux()
	for path, h := range c.Handlers(nil) {
		if tr != nil && path == "/v1/upload" {
			h = timedHandler(h, p.handler)
		}
		mux.Handle(path, h)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := srv.Client()
	if tr != nil {
		client = &http.Client{Transport: &timedTransport{base: client.Transport, sw: p.rtt}}
	}

	reps := make([]coord.WorkerReport, fleetWorkers)
	walls := make([]time.Duration, fleetWorkers)
	errs := make([]error, fleetWorkers)
	var wg sync.WaitGroup
	for i := range in.paths {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := tr.start(root, "coord.RunWorker")
			t0 := time.Now()
			reps[i], errs[i] = coord.RunWorker(sp.context(), coord.WorkerOptions{
				ID: fmt.Sprintf("w%d", i), Shard: i, TracePath: in.paths[i], UploadEvery: uploadEvery,
				Client: &coord.Client{Base: srv.URL, HTTPClient: client, Seed: uint64(i + 1)},
			})
			walls[i] = time.Since(t0)
			sp.End()
		}(i)
	}
	wg.Wait()
	workersDone := time.Now()
	for i, err := range errs {
		if err != nil {
			return p, fmt.Errorf("live_fleet: worker %d: %w", i, err)
		}
	}
	sp := tr.start(root, "coord.Results")
	res, err := c.Results()
	sp.End()
	end := time.Now()
	root.End()
	if err != nil {
		return p, err
	}
	p.status, p.digest, p.records = res.Status, res.Digest, res.Records
	p.wall, p.latency = end.Sub(start), end.Sub(workersDone)
	for i := range reps {
		p.uploads += int64(reps[i].Uploads)
		p.workerWall += walls[i]
	}
	for _, w := range res.Workers {
		p.accepted += w.Uploads
	}
	return p, nil
}
