package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"wantraffic/internal/coord"
	"wantraffic/internal/load"
	"wantraffic/internal/observe"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// ledgerReps is how many times the ledger times each chain and each
// layer. It reports medians, so one repetition disturbed by another
// process does not move the residual.
const ledgerReps = 5

// runLedger is the layer ledger, measured in every traced run at
// GOMAXPROCS=1 over the live workloads' own streams: live_sketch's
// bench-conn pass and live_observe's bench-pkt scenario and seed over
// twice a round's horizon, ≈2²¹ records each. Each chain is timed end to end, then each layer alone on the
// same records; the layers must add back up to the chain, and
// residual_pct says by how much they do not. On one CPU the sum is
// meaningful: nothing overlaps.
func runLedger(cfg config, r *result) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if err := connLedger(cfg, r); err != nil {
		return err
	}
	return pktLedger(cfg, r)
}

// connTimes is one repetition of the conn ledger.
type connTimes struct {
	e2e, load, ingest, merge, state, restore, decode, fold time.Duration
}

// connLedger: generate+encode (load), then a Session's IngestReader
// from memory (decode, fan-out and fold), then Merged and State.
func connLedger(cfg config, r *result) error {
	sc := connScenario(cfg.size.connHorizon)
	var data bytes.Buffer
	if _, err := generate(sc, cfg.seed, true, &data); err != nil {
		return err
	}
	var reps []connTimes
	var records int64
	var state []byte
	var split connSplit
	for i := 0; i < ledgerReps; i++ {
		var t connTimes
		e2e, err := sketchPass(cfg.seed, cfg.size.connHorizon, nil)
		if err != nil {
			return err
		}
		t.e2e, records = e2e.wall, e2e.records
		if t.load, err = generate(sc, cfg.seed, true, io.Discard); err != nil {
			return err
		}

		sess, err := stream.NewSession(stream.ConnSketch, stream.PipelineOptions{Shards: stream.DefaultShards})
		if err != nil {
			return err
		}
		start := time.Now()
		if _, _, err := sess.IngestReader(context.Background(), bytes.NewReader(data.Bytes()), trace.DecodeOptions{}); err != nil {
			return err
		}
		t.ingest = time.Since(start)
		start = time.Now()
		merged, err := sess.Merged(context.Background())
		if err != nil {
			return err
		}
		t.merge = time.Since(start)
		start = time.Now()
		if state, err = merged.State(); err != nil {
			return err
		}
		t.state = time.Since(start)
		start = time.Now()
		if _, err := stream.RestoreSketch(state); err != nil {
			return err
		}
		t.restore = time.Since(start)
		r.check(coord.Digest(state) == e2e.digest, "ledger: in-memory ingest state_sha256 differs from the piped chain's %s", e2e.digest)

		if split, err = decodeAndFold(data.Bytes()); err != nil {
			return err
		}
		r.check(int64(len(split.values)) == e2e.records, "ledger: decoded %d records, the chain folded %d", len(split.values), e2e.records)
		t.decode, t.fold = split.decode, split.fold
		reps = append(reps, t)
	}

	perRecord := func(f func(connTimes) time.Duration) float64 {
		return medianOf(reps, func(t connTimes) float64 { return float64(f(t).Nanoseconds()) / float64(records) })
	}
	e2e := perRecord(func(t connTimes) time.Duration { return t.e2e })
	sum := perRecord(func(t connTimes) time.Duration { return t.load + t.ingest + t.merge + t.state })
	r.set("ledger.conn.e2e_ns_per_record", e2e)
	r.set("ledger.conn.sum_ns_per_record", sum)
	r.set("ledger.conn.residual_pct", 100*(e2e-sum)/e2e)
	r.set("load.conn_ns_per_record", perRecord(func(t connTimes) time.Duration { return t.load }))
	r.set("trace.conn_decode_ns_per_record", perRecord(func(t connTimes) time.Duration { return t.decode }))
	r.set("stream.ingest_ns_per_record", perRecord(func(t connTimes) time.Duration { return t.ingest }))
	r.set("stream.fold_ns_per_record", perRecord(func(t connTimes) time.Duration { return t.fold }))
	r.set("stream.fanout_ns_per_record", perRecord(func(t connTimes) time.Duration { return t.ingest - t.decode - t.fold }))
	r.set("stream.merge_ms", medianOf(reps, func(t connTimes) float64 { return ms(t.merge) }))
	r.set("stream.state_ms", medianOf(reps, func(t connTimes) float64 { return ms(t.state) }))
	r.set("stream.restore_ms", medianOf(reps, func(t connTimes) float64 { return ms(t.restore) }))
	r.set("stream.state_bytes", float64(len(state)))

	// Each accumulator alone over the stream's own columns. A shard
	// folds every record into 3 dimensions × 4 accumulators plus the
	// window counter and the variance-time state, which predicts fold.
	acc := make(map[string]float64)
	for _, a := range []struct {
		name string
		acc  stream.Accumulator
		xs   []float64
	}{
		{"moments", stream.NewMoments(), split.values},
		{"gk", stream.NewGK(stream.DefaultEpsilon), split.values},
		{"log2hist", stream.NewLog2Hist(), split.values},
		{"reservoir", stream.NewReservoir(stream.DefaultReservoirSize, 1), split.values},
		{"window", stream.NewWindowCounter(1), split.times},
		{"aggvar", stream.NewAggVar(1, 0), split.times},
	} {
		start := time.Now()
		for i := 0; i < len(a.xs); i += stream.DefaultChunkSize {
			a.acc.ObserveMany(a.xs[i:min(i+stream.DefaultChunkSize, len(a.xs))])
		}
		acc[a.name] = float64(time.Since(start).Nanoseconds()) / float64(len(a.xs))
		r.set("stream.acc."+a.name+"_ns_per_obs", acc[a.name])
	}
	predicted := 3*(acc["moments"]+acc["gk"]+acc["log2hist"]+acc["reservoir"]) + acc["window"] + acc["aggvar"]
	r.extra("stream.acc.predicted_fold_ns_per_record", predicted, "ns")
	r.extra("stream.acc.gk_share_of_fold_pct", 100*3*acc["gk"]/predicted, "%")

	return coordLedger(r, split.shards)
}

// connSplit is the conn stream decoded and folded batch by batch with
// the two timed apart, plus the columns the accumulators replay.
type connSplit struct {
	decode, fold  time.Duration
	values, times []float64
	shards        []*stream.Sketch
}

// decodeAndFold repeats a Session's work on one goroutine: scan a
// batch, derive observations exactly as Session.IngestConns does, fold
// the batch into shard i mod 4. The untimed remainder of a Session's
// ingest is the derivation and the hand-off to shard goroutines.
func decodeAndFold(data []byte) (connSplit, error) {
	var s connSplit
	for i := 0; i < stream.DefaultShards; i++ {
		sk, err := stream.NewSketch(stream.ConnSketch, i, stream.Config{})
		if err != nil {
			return s, err
		}
		s.shards = append(s.shards, sk)
	}
	estimate := len(data) / 41 // binary conn records are 41 bytes
	s.values, s.times = make([]float64, 0, estimate), make([]float64, 0, estimate)
	sc := trace.NewConnBinaryScanner(bytes.NewReader(data), trace.DecodeOptions{})
	recs := make([]trace.Conn, stream.DefaultChunkSize)
	batch := make([]stream.Obs, 0, stream.DefaultChunkSize)
	var prev float64
	first := true
	for k := 0; ; k++ {
		start := time.Now()
		n, err := sc.ScanBatch(recs)
		s.decode += time.Since(start)
		if n > 0 {
			batch = batch[:0]
			for _, c := range recs[:n] {
				o := stream.Obs{Time: c.Start, Value: float64(c.Bytes()), Duration: c.Duration}
				if !first {
					o.Gap, o.HasGap = c.Start-prev, true
				}
				prev, first = c.Start, false
				batch = append(batch, o)
				s.values, s.times = append(s.values, o.Value), append(s.times, o.Time)
			}
			start = time.Now()
			s.shards[k%stream.DefaultShards].ObserveBatch(batch)
			s.fold += time.Since(start)
		}
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return s, err
		}
	}
}

// coordLedger times the coordinator's accept path on a shard-sized
// state: Apply called directly, and the same upload POSTed through a
// Client. The first upload is accepted, the repeats are duplicates;
// both pay digest verification and restore.
func coordLedger(r *result, shards []*stream.Sketch) error {
	const repeats = 5
	upload := func(worker string, shard int) (coord.Upload, error) {
		state, err := shards[shard].State()
		if err != nil {
			return coord.Upload{}, err
		}
		return coord.Upload{Proto: coord.Proto, Worker: worker, Shard: shard, Epoch: 1,
			Records: shards[shard].Records(), Digest: coord.Digest(state), State: state}, nil
	}
	c, err := coord.New(coord.Options{})
	if err != nil {
		return err
	}
	u, err := upload("w0", 0)
	if err != nil {
		return err
	}
	var apply, post []float64
	for k := 1; k <= repeats; k++ {
		u.Seq = int64(k)
		start := time.Now()
		if _, err := c.Apply(u); err != nil {
			return err
		}
		apply = append(apply, ms(time.Since(start)))
	}

	mux := http.NewServeMux()
	for path, h := range c.Handlers(nil) {
		mux.Handle(path, h)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := &coord.Client{Base: srv.URL, HTTPClient: srv.Client()}
	if u, err = upload("w1", 1); err != nil {
		return err
	}
	for k := 1; k <= repeats; k++ {
		u.Seq = int64(k)
		start := time.Now()
		if _, err := cl.Upload(context.Background(), u); err != nil {
			return err
		}
		post = append(post, ms(time.Since(start)))
	}
	r.set("coord.apply_ms", median(apply))
	r.set("coord.upload_ms", median(post))
	return nil
}

// pktTimes is one repetition of the packet ledger.
type pktTimes struct {
	e2e, load, decode, fold, foldOpen time.Duration
	windows                           int64
}

// pktLedger: generate+encode (load), then record-at-a-time text decode
// as observe.Replay does it, then the Observatory's fold.
func pktLedger(cfg config, r *result) error {
	sc := pktScenario(cfg.size.ledgerHorizon)
	var data bytes.Buffer
	if _, err := generate(sc, cfg.seed, false, &data); err != nil {
		return err
	}
	var reps []pktTimes
	var records int64
	for i := 0; i < ledgerReps; i++ {
		e2e, err := observePass(cfg.seed, cfg.size.ledgerHorizon, 0, nil)
		if err != nil {
			return err
		}
		records = e2e.records
		t, decoded, err := decodeAndObserve(data.Bytes(), cfg.size.ledgerHorizon)
		if err != nil {
			return err
		}
		r.check(decoded == e2e.records, "ledger: decoded %d packets, the chain folded %d", decoded, e2e.records)
		t.e2e = e2e.wall
		if t.load, err = generate(sc, cfg.seed, false, io.Discard); err != nil {
			return err
		}
		reps = append(reps, t)
	}

	perRecord := func(f func(pktTimes) time.Duration) float64 {
		return medianOf(reps, func(t pktTimes) float64 { return float64(f(t).Nanoseconds()) / float64(records) })
	}
	e2e := perRecord(func(t pktTimes) time.Duration { return t.e2e })
	sum := perRecord(func(t pktTimes) time.Duration { return t.load + t.decode + t.fold })
	r.set("ledger.pkt.e2e_ns_per_record", e2e)
	r.set("ledger.pkt.sum_ns_per_record", sum)
	r.set("ledger.pkt.residual_pct", 100*(e2e-sum)/e2e)
	r.set("load.pkt_ns_per_record", perRecord(func(t pktTimes) time.Duration { return t.load }))
	r.set("trace.pkt_decode_ns_per_record", perRecord(func(t pktTimes) time.Duration { return t.decode }))
	r.set("observe.fold_ns_per_record", perRecord(func(t pktTimes) time.Duration { return t.fold }))
	r.set("observe.window_close_us", medianOf(reps, func(t pktTimes) float64 {
		return float64((t.fold - t.foldOpen).Nanoseconds()) / 1e3 / float64(max(t.windows, 1))
	}))
	return nil
}

// decodeAndObserve decodes the text packet stream batch by batch and
// folds each batch twice: into an Observatory with 5 s windows, and
// into one whose single window spans the whole stream and never
// closes. The difference is the cost of closing windows.
func decodeAndObserve(data []byte, horizon float64) (pktTimes, int64, error) {
	var t pktTimes
	br := bufio.NewReaderSize(bytes.NewReader(data), 1<<16)
	if _, _, err := trace.SniffHeader(br); err != nil {
		return t, 0, err
	}
	sc := trace.NewPacketScanner(br, trace.DecodeOptions{})
	windowed := observe.New(observe.Options{})
	unwindowed := observe.New(observe.Options{Window: horizon + 1})
	var decoded int64
	batch := make([]trace.Packet, 0, stream.DefaultChunkSize)
	for {
		start := time.Now()
		batch = batch[:0]
		for len(batch) < cap(batch) && sc.Scan() {
			batch = append(batch, sc.Packet())
		}
		t.decode += time.Since(start)
		start = time.Now()
		for _, p := range batch {
			windowed.ObservePacket(p)
		}
		t.fold += time.Since(start)
		start = time.Now()
		for _, p := range batch {
			unwindowed.ObservePacket(p)
		}
		t.foldOpen += time.Since(start)
		decoded += int64(len(batch))
		if len(batch) < cap(batch) {
			break
		}
	}
	t.windows = windowed.Windows()
	return t, decoded, sc.Err()
}

// generate runs the scenario's generator once into w and returns how
// long it took. A Daemon runs once, so each call builds its own.
func generate(sc *load.Scenario, seed int64, binary bool, w io.Writer) (time.Duration, error) {
	d, err := load.New(sc, load.Options{Seed: seed, Binary: binary})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := d.Run(context.Background(), w); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
