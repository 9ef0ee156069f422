package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"wantraffic/internal/coord"
	"wantraffic/internal/load"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// live_sketch is the `wanload -binary | wanstream` path in one
// process, closed loop at full speed: load.New → Daemon.Run → io.Pipe →
// a 4-shard stream.Session's IngestReader → Merged → State. Each pass
// generates the same bench-conn stream from the seed.
func runLiveSketch(cfg config) (*result, error) {
	r := &result{workload: "live_sketch"}
	_, setupS, err := timeSetups(cfg.size.setups, func() (struct{}, error) {
		_, err := sketchPass(cfg.seed, cfg.size.warmupHorizon, nil)
		return struct{}{}, err
	})
	if err != nil {
		return nil, err
	}

	var digest string
	var thrU, thrT, latencies []float64
	var traced []sketchStats
	err = repeat(cfg, cfg.size.minPasses, func(tr *benchTracer) error {
		p, err := sketchPass(cfg.seed, cfg.size.connHorizon, tr)
		if err != nil {
			return err
		}
		if digest == "" {
			digest = p.digest
		}
		r.check(p.digest == digest, "live_sketch: state_sha256 %s differs from the run's first pass %s", p.digest, digest)
		r.check(p.folded == p.records && p.skipped == 0,
			"live_sketch: generated %d records, folded %d, skipped %d", p.records, p.folded, p.skipped)
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
	checkPinned(r, "live_sketch", cfg.seed, cfg.size.connHorizon, digest)
	r.note("state_sha256 %s", digest)

	if cfg.traced {
		r.set("trace_overhead_pct", overheadPct(thrU, thrT))
		r.set("load.busy_ratio", medianOf(traced, func(p sketchStats) float64 { return 1 - ratio(p.writeBlock.Seconds(), p.genWall.Seconds()) }))
		r.set("stream.busy_ratio", medianOf(traced, func(p sketchStats) float64 { return 1 - ratio(p.readWait.Seconds(), p.ingestWall.Seconds()) }))
		r.set("trace.bytes_per_record", medianOf(traced, func(p sketchStats) float64 { return ratio(float64(p.bytes), float64(p.records)) }))
		r.set("trace.decode_skipped", float64(traced[0].skipped))
		r.extra("load.write_block_s", medianOf(traced, func(p sketchStats) float64 { return p.writeBlock.Seconds() }), "s")
		r.extra("stream.read_wait_s", medianOf(traced, func(p sketchStats) float64 { return p.readWait.Seconds() }), "s")
		if err := runLedger(cfg, r); err != nil {
			return nil, err
		}
	}
	return r, finish(r, cfg, setupS, thrU, latencies)
}

// sketchStats is one live_sketch pass.
type sketchStats struct {
	records, folded, skipped int64
	digest                   string
	wall                     time.Duration // Run called → merged state hashed
	latency                  time.Duration // last record written → merged state hashed

	// Traced passes only.
	genWall, writeBlock, ingestWall, readWait time.Duration
	bytes                                     int64
}

// sketchPass runs the chain once. tr is nil on untraced passes.
func sketchPass(seed int64, horizon float64, tr *benchTracer) (sketchStats, error) {
	var p sketchStats
	d, err := load.New(connScenario(horizon), load.Options{Seed: seed, Binary: true})
	if err != nil {
		return p, err
	}
	sess, err := stream.NewSession(stream.ConnSketch, stream.PipelineOptions{Shards: stream.DefaultShards})
	if err != nil {
		return p, err
	}
	pr, pw := io.Pipe()
	var w io.Writer = pw
	var rd io.Reader = pr
	var wsw, rsw stopwatch
	if tr != nil {
		w, rd = &timedWriter{pw, &wsw}, &timedReader{pr, &rsw}
	}

	type genResult struct {
		rep  load.Report
		err  error
		wall time.Duration
		end  time.Time
	}
	root := tr.start(nil, "live_sketch.pass")
	start := time.Now()
	gen := make(chan genResult, 1)
	go func() {
		sp := tr.start(root, "load.Run")
		rep, err := d.Run(context.Background(), w)
		sp.End()
		end := time.Now()
		pw.CloseWithError(err)
		gen <- genResult{rep, err, end.Sub(start), end}
	}()

	sp := tr.start(root, "stream.IngestReader")
	_, st, ierr := sess.IngestReader(sp.context(), rd, trace.DecodeOptions{})
	sp.End()
	ingestWall := time.Since(start)
	pr.CloseWithError(ierr) // unblocks the generator if ingest stopped early
	g := <-gen
	if g.err != nil {
		return p, fmt.Errorf("live_sketch: generator: %w", g.err)
	}
	if ierr != nil {
		return p, fmt.Errorf("live_sketch: ingest: %w", ierr)
	}

	sp = tr.start(root, "stream.Merged")
	merged, err := sess.Merged(sp.context())
	sp.End()
	if err != nil {
		return p, err
	}
	sp = tr.start(root, "stream.State")
	state, err := merged.State()
	sp.End()
	if err != nil {
		return p, err
	}
	p.digest = coord.Digest(state)
	end := time.Now()
	root.End()

	p.records, p.folded, p.skipped = g.rep.Records, merged.Records(), int64(st.RecordsSkipped)
	p.wall, p.latency = end.Sub(start), end.Sub(g.end)
	p.genWall, p.writeBlock = g.wall, wsw.total
	p.ingestWall, p.readWait = ingestWall, rsw.total
	p.bytes = wsw.bytes
	return p, nil
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}
