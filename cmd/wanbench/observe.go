package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"wantraffic/internal/load"
	"wantraffic/internal/obs"
	"wantraffic/internal/observe"
	"wantraffic/internal/trace"
)

// live_observe is the `wanload | wanstream -follow` path a dashboard
// watches: bench-pkt in text framing, Daemon.Run → io.Pipe →
// observe.Replay → an Observatory with 5 s windows. Each round runs the
// seed's stream twice: paced, open loop at dilate 720, timing each
// verdict from when its window's end was due; then at full speed, for
// throughput. Rounds repeat until the run's seconds are spent, and the
// latency is the median over every paced round's windows: how late the
// pacer wakes drifts from pass to pass, so one long paced pass would
// report one pass's drift. Every pass must emit byte-identical events.
func runLiveObserve(cfg config) (*result, error) {
	r := &result{workload: "live_observe"}
	_, setupS, err := timeSetups(cfg.size.setups, func() (struct{}, error) {
		_, err := observePass(cfg.seed, cfg.size.warmupHorizon, 0, nil)
		return struct{}{}, err
	})
	if err != nil {
		return nil, err
	}

	var digest string
	var thrU, thrT, latencies []float64
	var paced, traced []observeStats
	err = repeat(cfg, cfg.size.minPasses, func(tr *benchTracer) error {
		pp, err := observePass(cfg.seed, cfg.size.pktHorizon, dilate, tr)
		if err != nil {
			return err
		}
		fp, err := observePass(cfg.seed, cfg.size.pktHorizon, 0, tr)
		if err != nil {
			return err
		}
		if digest == "" {
			digest = pp.digest
		}
		r.check(pp.digest == digest && fp.digest == digest,
			"live_observe: events_sha256 paced %s, full speed %s, the run's first pass %s", pp.digest, fp.digest, digest)
		r.check(pp.folded == pp.records && pp.skipped == 0,
			"live_observe: paced pass generated %d records, folded %d, skipped %d", pp.records, pp.folded, pp.skipped)
		latencies = append(latencies, pp.latencies...)
		paced = append(paced, pp)
		thr := float64(fp.records) / fp.wall.Seconds()
		if tr == nil {
			thrU = append(thrU, thr)
		} else {
			thrT = append(thrT, thr)
			traced = append(traced, fp)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	checkPinned(r, "live_observe", cfg.seed, cfg.size.pktHorizon, digest)
	first := paced[0]
	r.note("events_sha256 %s over %d windows", digest, first.windows)

	if cfg.traced {
		r.set("trace_overhead_pct", overheadPct(thrU, thrT))
		r.set("load.busy_ratio", medianOf(traced, func(p observeStats) float64 { return 1 - ratio(p.writeBlock.Seconds(), p.genWall.Seconds()) }))
		r.set("observe.busy_ratio", medianOf(traced, func(p observeStats) float64 { return 1 - ratio(p.readWait.Seconds(), p.replayWall.Seconds()) }))
		r.set("load.late_pct", medianOf(paced, func(p observeStats) float64 { return 100 * ratio(p.late.Seconds(), p.scheduled.Seconds()) }))
		r.set("trace.bytes_per_record", medianOf(traced, func(p observeStats) float64 { return ratio(float64(p.bytes), float64(p.records)) }))
		r.set("trace.decode_skipped", float64(first.skipped))
		r.set("observe.windows", float64(first.windows))
		for _, v := range []string{"warming", "poisson", "bursty"} {
			r.set("observe.verdicts."+v, float64(first.verdicts[v]))
		}
		r.set("observe.change_points", float64(first.changes))
		r.extra("load.late_ms", medianOf(paced, func(p observeStats) float64 { return ms(p.late) }), "ms")
		if err := runLedger(cfg, r); err != nil {
			return nil, err
		}
	}
	return r, finish(r, cfg, setupS, thrU, latencies)
}

// observeStats is one live_observe pass.
type observeStats struct {
	records, folded, skipped int64
	digest                   string        // SHA-256 of the event stream, one JSON line per event
	wall                     time.Duration // Run called → Replay returned
	latencies                []float64     // paced only: verdict emitted − window end due, ms
	windows, changes         int64
	verdicts                 map[string]int64
	scheduled, late          time.Duration // paced only: the generator's schedule, and how far behind it ran

	// Traced passes only.
	genWall, writeBlock, replayWall, readWait time.Duration
	bytes                                     int64
}

// observePass runs the chain once; dil 0 is full speed.
func observePass(seed int64, horizon, dil float64, tr *benchTracer) (observeStats, error) {
	p := observeStats{verdicts: make(map[string]int64)}
	d, err := load.New(pktScenario(horizon), load.Options{Seed: seed, Dilate: dil})
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
	head := &headWriter{w: w}
	if dil > 0 {
		w = head
	}

	h := sha256.New()
	var runStart time.Time
	var encErr error
	var emitted []time.Duration // paced only: verdict emitted − Run called
	var tEnds []float64         // paced only: the verdict's window end (trace s)
	o := observe.New(observe.Options{OnEvent: func(ev observe.Event) {
		at := time.Now()
		raw, err := json.Marshal(ev)
		if err != nil && encErr == nil {
			encErr = err
		}
		h.Write(append(raw, '\n'))
		switch ev.Kind {
		case obs.EventVerdict:
			p.verdicts[ev.Name]++
			if dil > 0 {
				emitted, tEnds = append(emitted, at.Sub(runStart)), append(tEnds, ev.TEnd)
			}
		case obs.EventChangePoint:
			p.changes++
		}
	}})

	type genResult struct {
		rep  load.Report
		err  error
		wall time.Duration
	}
	root := tr.start(nil, "live_observe.pass")
	runStart = time.Now()
	gen := make(chan genResult, 1)
	go func() {
		sp := tr.start(root, "load.Run")
		rep, err := d.Run(context.Background(), w)
		sp.End()
		wall := time.Since(runStart)
		pw.CloseWithError(err)
		gen <- genResult{rep, err, wall}
	}()
	sp := tr.start(root, "observe.Replay")
	st, rerr := observe.Replay(rd, o, observe.ReplayOptions{Flush: true})
	sp.End()
	p.wall = time.Since(runStart)
	pr.CloseWithError(rerr)
	g := <-gen
	root.End()
	switch {
	case g.err != nil:
		return p, fmt.Errorf("live_observe: generator: %w", g.err)
	case rerr != nil:
		return p, fmt.Errorf("live_observe: replay: %w", rerr)
	case encErr != nil:
		return p, fmt.Errorf("live_observe: encoding events: %w", encErr)
	}
	p.records, p.folded, p.skipped = g.rep.Records, st.Records, int64(st.Decode.RecordsSkipped)
	p.digest = hex.EncodeToString(h.Sum(nil))
	p.windows = o.Windows()
	if dil > 0 {
		// The generator's schedule starts at its first record, t0: the
		// record at trace time t is due (t − t0)/dil after Run is called,
		// and a window's end when the schedule reaches it.
		t0, err := firstPacketTime(head.head)
		if err != nil {
			return p, fmt.Errorf("live_observe: %w", err)
		}
		due := func(t float64) time.Duration { return time.Duration((t - t0) / dil * float64(time.Second)) }
		// The last verdict is the partial window Flush closes at EOF, not
		// one a record closed when it was due.
		for i := 0; i < len(emitted)-1; i++ {
			p.latencies = append(p.latencies, ms(emitted[i]-due(tEnds[i])))
		}
		p.scheduled = due(g.rep.TraceSeconds)
		p.late = time.Duration(g.rep.WallSeconds*float64(time.Second)) - p.scheduled
	}
	p.genWall, p.writeBlock, p.replayWall, p.readWait = g.wall, wsw.total, p.wall, rsw.total
	p.bytes = wsw.bytes
	return p, nil
}

// headWriter keeps the first bytes written through it.
type headWriter struct {
	w    io.Writer
	head []byte
}

func (h *headWriter) Write(b []byte) (int, error) {
	if room := 512 - len(h.head); room > 0 {
		h.head = append(h.head, b[:min(len(b), room)]...)
	}
	return h.w.Write(b)
}

// firstPacketTime decodes the first record of a text packet stream from
// the stream's first bytes.
func firstPacketTime(head []byte) (float64, error) {
	br := bufio.NewReader(bytes.NewReader(head))
	if _, _, err := trace.SniffHeader(br); err != nil {
		return 0, err
	}
	sc := trace.NewPacketScanner(br, trace.DecodeOptions{})
	if !sc.Scan() {
		return 0, fmt.Errorf("no complete record in the stream's first %d bytes: %v", len(head), sc.Err())
	}
	return sc.Packet().Time, nil
}
