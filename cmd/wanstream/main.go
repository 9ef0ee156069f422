// Command wanstream summarizes a trace file in one bounded-memory
// pass through the sharded streaming pipeline (internal/stream). It
// auto-detects the trace kind and encoding from the header.
//
// Where wanstats materializes the whole trace before analyzing it,
// wanstream's accumulator state is independent of trace length: exact
// moments, ε-approximate quantiles, log₂ histograms, a seeded sample,
// the Appendix-A windowed arrival counts (rate, index of dispersion,
// lag-1 autocorrelation) and the Section VII variance-time slope all
// come out of a single pass over the records.
//
// Usage:
//
//	wanstream trace.conn
//	wanstream -json trace.pkt
//	wanstream -shards 8 -eps 0.002 big.conn
//	wanstream -state sketch.json trace.conn   # persist the merged sketch
//	wanstream -lenient damaged.conn           # skip malformed records
//	wanstream -serve :8077 -progress big.conn # live monitor + ticker
//	wanstream shard0.conn shard1.conn ...     # multi-file canonical merge
//	wanstream -coord http://host:8087 -worker-id w0 -shard 0 shard0.conn
//	wanstream -follow trace.conn              # live observatory verdicts
//	wanstream -follow -dilate 60 -serve :8077 day.conn
//	wanload -dilate 60 two-regime.json | wanstream -follow -    # live synthesis
//	cat trace.conn | wanstream -              # "-" reads stdin (single input)
//
// With -follow, wanstream switches from the one-shot pipeline to the
// always-on observatory (internal/observe): the trace is replayed —
// at full speed, or time-dilated with -dilate so a day of trace plays
// back in minutes — and every estimator window closes with a verdict
// line ("poisson" / "bursty") plus classified change-point alarms
// when the traffic's regime shifts. Under -serve the same events
// stream on /events (watch them with `wanmon watch`) and the
// observe.* gauges appear on /metrics. Pacing never changes what is
// computed: the emitted event sequence is byte-identical at every
// dilation factor, and -state writes the observatory's deterministic
// serialized state instead of the pipeline sketch.
//
// With several trace files, file i is ingested as global shard i and
// the sketches are merged in canonical order — the single-process
// reference for a `wancoord split` decomposition: the summary (and
// state_sha256) matches what a wancoord fleet over the same shard
// files produces, byte for byte.
//
// With -coord, wanstream runs as a distributed worker (internal/
// coord): it ingests its one shard file and periodically POSTs its
// serialized sketch state to the coordinator, checkpointing before
// every upload so -resume can continue an interrupted ingest under a
// new epoch without double-counting.
//
// The sketch state written by -state is the deterministic serialized
// form: re-running with the same trace, seed and shard count yields a
// byte-identical file; its SHA-256 is reported as state_sha256. Exit
// codes follow the internal/cli contract: 0 success, 1 hard failure,
// 2 usage error, 3 partial success (-lenient skipped records; the
// summary still covers the rest).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"wantraffic/internal/cli"
	"wantraffic/internal/coord"
	"wantraffic/internal/obs"
	"wantraffic/internal/observe"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

func main() {
	os.Exit(cli.Main("wanstream", run))
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("wanstream", stderr)
	shards := fs.Int("shards", stream.DefaultShards, "sketch shards (part of the deterministic decomposition)")
	chunk := fs.Int("chunk", stream.DefaultChunkSize, "observations per fan-out chunk")
	eps := fs.Float64("eps", stream.DefaultEpsilon, "quantile sketch rank-error bound")
	reservoir := fs.Int("reservoir", stream.DefaultReservoirSize, "sample capacity per dimension")
	seed := fs.Int64("seed", 1, "reservoir sampling seed")
	window := fs.Float64("window", 1, "arrival-count window (s)")
	bin := fs.Float64("bin", 0, "variance-time base bin (s); 0 selects 1 s for conn, 0.01 s for packet traces")
	lenient := fs.Bool("lenient", false, "skip malformed records (with accounting) instead of aborting")
	maxLine := fs.Int("max-line-bytes", trace.DefaultMaxLineBytes, "hard limit on a single trace line")
	maxRecords := fs.Int("max-records", trace.DefaultMaxRecords, "hard limit on decoded records")
	jsonOut := fs.Bool("json", false, "emit the summary as JSON")
	statePath := fs.String("state", "", "also write the merged sketch state (deterministic JSON) to this file")

	// Live observatory mode (-follow selects it; see internal/observe).
	follow := fs.Bool("follow", false, "replay the trace through the live observatory, one verdict line per estimator window")
	dilate := fs.Float64("dilate", 0, "with -follow: replay speed (1: real time, 60: a trace minute per wall second; 0: full speed)")
	obsWindow := fs.Float64("obs-window", 0, "with -follow: estimator window in seconds (0 selects 5)")
	obsKeep := fs.Int("obs-keep", 0, "with -follow: rolling estimator horizon in windows, at least 2 (unset selects 60)")
	obsHalfLife := fs.Float64("obs-halflife", 0, "with -follow: size-decay half-life in seconds (0 selects 10 windows)")
	obsWarmup := fs.Int("obs-warmup", 0, "with -follow: windows closed before verdicts leave warming, at least 2 (unset selects 8)")

	// Distributed worker mode (-coord selects it; see internal/coord).
	coordURL := fs.String("coord", "", "run as a distributed worker POSTing sketch state to this coordinator URL")
	workerID := fs.String("worker-id", "", "with -coord: this worker's identity (default worker-<shard>)")
	shard := fs.Int("shard", 0, "with -coord: this worker's global shard index")
	uploadEvery := fs.Int64("upload-every", 0, "with -coord: checkpoint and upload every N records (0: final upload only)")
	checkpoint := fs.String("checkpoint", "", "with -coord: write an atomic resume checkpoint before every upload")
	resume := fs.Bool("resume", false, "with -coord: resume from -checkpoint, skipping already-folded records under a new epoch")
	uploadRetries := fs.Int("upload-retries", 4, "with -coord: retries per upload on retryable failures")
	uploadBackoff := fs.Duration("upload-backoff", 100*time.Millisecond, "with -coord: base retry backoff (capped exponential, seeded jitter)")
	uploadTimeout := fs.Duration("upload-timeout", 5*time.Second, "with -coord: per-request upload timeout")
	token := fs.String("token", "", "with -coord: shared secret for the coordinator's guarded endpoints")
	ingestDelay := fs.Duration("ingest-delay", 0, "with -coord: pause between record batches (demo pacing for wanmon watch)")

	obsFlags := cli.RegisterObs(fs)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if err := cli.FirstErr(
		cli.Positive("shards", float64(*shards)),
		cli.Positive("chunk", float64(*chunk)),
		cli.Positive("eps", *eps),
		cli.Positive("reservoir", float64(*reservoir)),
		cli.Positive("window", *window),
		cli.NonNegative("bin", *bin),
		cli.Positive("max-line-bytes", float64(*maxLine)),
		cli.Positive("max-records", float64(*maxRecords)),
		cli.NonNegative("shard", float64(*shard)),
		cli.NonNegative("upload-every", float64(*uploadEvery)),
		cli.NonNegative("dilate", *dilate),
		cli.NonNegative("obs-window", *obsWindow),
		cli.NonNegative("obs-keep", float64(*obsKeep)),
		cli.NonNegative("obs-halflife", *obsHalfLife),
		cli.NonNegative("obs-warmup", float64(*obsWarmup)),
	); err != nil {
		return err
	}
	if !*follow {
		for flag, set := range map[string]bool{
			"dilate": *dilate != 0, "obs-window": *obsWindow != 0,
			"obs-keep": *obsKeep != 0, "obs-halflife": *obsHalfLife != 0,
			"obs-warmup": *obsWarmup != 0,
		} {
			if set {
				return cli.Usagef("-%s requires -follow", flag)
			}
		}
	} else if *coordURL != "" {
		return cli.Usagef("-follow and -coord are mutually exclusive")
	}
	if *follow {
		// 0 means "use the default" for the obs knobs, and the
		// observatory replaces a horizon or warmup below 2 with its
		// default, so an explicit -obs-window 0 or -obs-keep 1 would
		// otherwise be silently rewritten — reject it instead.
		var bad error
		fs.Visit(func(f *flag.Flag) {
			switch {
			case bad != nil:
			case (f.Name == "obs-window" || f.Name == "obs-halflife") && f.Value.String() == "0":
				bad = cli.Usagef("-%s must be positive with -follow (omit it for the default)", f.Name)
			case f.Name == "obs-keep" && *obsKeep < 2, f.Name == "obs-warmup" && *obsWarmup < 2:
				bad = cli.Usagef("-%s must be at least 2 with -follow (omit it for the default)", f.Name)
			}
		})
		if bad != nil {
			return bad
		}
	}
	if *coordURL == "" {
		for flag, set := range map[string]bool{
			"worker-id": *workerID != "", "checkpoint": *checkpoint != "",
			"resume": *resume, "upload-every": *uploadEvery != 0,
			"ingest-delay": *ingestDelay != 0,
		} {
			if set {
				return cli.Usagef("-%s requires -coord", flag)
			}
		}
	}
	if fs.NArg() < 1 {
		return cli.Usagef("usage: wanstream [flags] <tracefile | -> [tracefile ...]")
	}
	if hasStdin(fs.Args()) {
		// "-" streams stdin through the single-input modes; the
		// multi-file merge and -coord worker re-read per shard, which
		// a pipe cannot satisfy.
		if fs.NArg() > 1 {
			return cli.Usagef("stdin (-) is only valid as the single input")
		}
		if *coordURL != "" {
			return cli.Usagef("-coord needs a seekable shard file, not stdin (-)")
		}
	}

	cfg := stream.Config{Epsilon: *eps, ReservoirSize: *reservoir, Seed: *seed,
		WindowWidth: *window, AggBinWidth: *bin}
	dopts := trace.DecodeOptions{Lenient: *lenient, MaxLineBytes: *maxLine, MaxRecords: *maxRecords}

	sess, err := obsFlags.Start(stderr)
	if err != nil {
		return err
	}
	defer sess.Close()
	dopts.Metrics = sess.Metrics
	ctx := obs.WithTracer(context.Background(), sess.Tracer)

	if *follow {
		if fs.NArg() != 1 {
			return cli.Usagef("-follow takes exactly one trace file")
		}
		return runFollow(ctx, fs.Arg(0), followFlags{
			dilate: *dilate, window: *obsWindow, keep: *obsKeep,
			halfLife: *obsHalfLife, warmup: *obsWarmup,
			statePath: *statePath, jsonOut: *jsonOut,
		}, sess, dopts, stdout)
	}

	if *coordURL != "" {
		return runWorker(ctx, fs.Args(), workerFlags{
			coordURL: *coordURL, workerID: *workerID, shard: *shard,
			uploadEvery: *uploadEvery, checkpoint: *checkpoint, resume: *resume,
			retries: *uploadRetries, backoff: *uploadBackoff, timeout: *uploadTimeout,
			token: *token, ingestDelay: *ingestDelay,
			cfg: cfg, dopts: dopts, chunk: *chunk, seed: *seed, jsonOut: *jsonOut,
		}, sess, stdout)
	}

	var res *stream.Result
	if fs.NArg() == 1 {
		f, err := openInput(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		res, err = stream.Ingest(ctx, f, dopts,
			stream.PipelineOptions{Shards: *shards, ChunkSize: *chunk, Metrics: sess.Metrics, Marks: sess.Marks, Config: cfg})
		if err != nil {
			return err
		}
	} else {
		res, err = mergeFiles(ctx, fs.Args(), dopts,
			stream.PipelineOptions{ChunkSize: *chunk, Metrics: sess.Metrics, Marks: sess.Marks, Config: cfg})
		if err != nil {
			return err
		}
	}
	state, err := res.Sketch.State()
	if err != nil {
		return err
	}
	digest := coord.Digest(state)
	if *statePath != "" {
		if err := os.WriteFile(*statePath, state, 0o644); err != nil {
			return err
		}
	}
	sum := res.Sketch.Summarize()
	if *jsonOut {
		raw, err := json.MarshalIndent(streamReport{
			File: strings.Join(fs.Args(), ","), Name: res.Header.Name, HorizonS: res.Header.Horizon,
			Shards: res.Shards, StateSHA256: digest, Decode: res.Stats, Summary: sum,
		}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", raw)
	} else {
		printSummary(stdout, res, sum, digest)
	}
	if err := sess.Close(); err != nil {
		return err
	}
	if res.Stats.RecordsSkipped > 0 {
		return cli.Partialf("summary complete, but %d malformed record(s) were skipped", res.Stats.RecordsSkipped)
	}
	return nil
}

// mergeFiles ingests file i as global shard i through a single-shard
// session and folds the sketches in canonical order — the
// single-process reference for a wancoord split decomposition: the
// merged bytes match what a worker fleet over the same shard files
// converges on.
func mergeFiles(ctx context.Context, paths []string, dopts trace.DecodeOptions, popts stream.PipelineOptions) (*stream.Result, error) {
	res := &stream.Result{Shards: len(paths)}
	sketches := make([]*stream.Sketch, len(paths))
	for i, path := range paths {
		hdr, dstats, sk, err := ingestShard(ctx, path, i, dopts, popts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if i == 0 {
			res.Header = hdr
		}
		res.Stats.RecordsKept += dstats.RecordsKept
		res.Stats.RecordsSkipped += dstats.RecordsSkipped
		res.Stats.LinesRead += dstats.LinesRead
		res.Stats.BytesRead += dstats.BytesRead
		res.Stats.Errors = append(res.Stats.Errors, dstats.Errors...)
		sketches[i] = sk
	}
	var err error
	if res.Sketch, err = stream.MergeSketches(sketches); err != nil {
		return nil, err
	}
	return res, nil
}

// ingestShard folds one shard file through a single-shard session at
// global shard index i, taking the sketch kind from the file's header.
func ingestShard(ctx context.Context, path string, i int, dopts trace.DecodeOptions, popts stream.PipelineOptions) (trace.Header, trace.DecodeStats, *stream.Sketch, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Header{}, trace.DecodeStats{}, nil, err
	}
	defer f.Close()
	src, err := stream.NewSource(f, dopts)
	if err != nil {
		return trace.Header{}, trace.DecodeStats{}, nil, err
	}
	popts.Shards, popts.ShardOffset = 1, i
	sess, err := stream.NewSession(src.SketchKind(), popts)
	if err != nil {
		return trace.Header{}, trace.DecodeStats{}, nil, err
	}
	hdr, dstats, err := sess.IngestSource(ctx, src)
	if err != nil {
		return hdr, dstats, nil, err
	}
	sk, err := sess.Merged(ctx)
	return hdr, dstats, sk, err
}

// workerFlags bundles the parsed -coord mode options.
type workerFlags struct {
	coordURL, workerID, checkpoint, token string
	shard                                 int
	uploadEvery                           int64
	resume                                bool
	retries                               int
	backoff, timeout, ingestDelay         time.Duration
	cfg                                   stream.Config
	dopts                                 trace.DecodeOptions
	chunk                                 int
	seed                                  int64
	jsonOut                               bool
}

// runWorker is -coord mode: ingest one shard file, stream state
// uploads to the coordinator, report the final digest.
func runWorker(ctx context.Context, args []string, wf workerFlags, sess *cli.ObsSession, stdout io.Writer) error {
	if len(args) != 1 {
		return cli.Usagef("worker mode takes exactly one shard trace file")
	}
	id := wf.workerID
	if id == "" {
		id = fmt.Sprintf("worker-%d", wf.shard)
	}
	rep, err := coord.RunWorker(ctx, coord.WorkerOptions{
		ID: id, Shard: wf.shard, TracePath: args[0],
		Config: wf.cfg, Decode: wf.dopts, ChunkSize: wf.chunk,
		UploadEvery: wf.uploadEvery, Checkpoint: wf.checkpoint, Resume: wf.resume,
		IngestDelay: wf.ingestDelay,
		Client: &coord.Client{
			Base: normalizeBase(wf.coordURL), Token: wf.token,
			Retries: wf.retries, Backoff: wf.backoff, Timeout: wf.timeout,
			Seed:   uint64(wf.seed) + uint64(wf.shard),
			Logger: sess.Logger, Metrics: sess.Metrics,
		},
		Logger: sess.Logger, Metrics: sess.Metrics, Marks: sess.Marks,
	})
	if err != nil {
		return err
	}
	if wf.jsonOut {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", raw)
	} else {
		fmt.Fprintf(stdout, "worker %s shard %d: %d records in %d upload(s), epoch %d\n",
			rep.Worker, rep.Shard, rep.Records, rep.Uploads, rep.Epoch)
		if rep.Resumed {
			fmt.Fprintf(stdout, "resumed from checkpoint: %d record(s) skipped\n", rep.Skipped)
		}
		fmt.Fprintf(stdout, "state sha256: %s\n", rep.Digest)
	}
	return sess.Close()
}

// followFlags bundles the parsed -follow mode options.
type followFlags struct {
	dilate, window, halfLife float64
	keep, warmup             int
	statePath                string
	jsonOut                  bool
}

// runFollow is -follow mode: replay one trace through the live
// observatory, rendering every verdict and change-point as it is
// emitted. All event values are pure functions of the record
// sequence, so the output is byte-identical at any -dilate factor.
func runFollow(ctx context.Context, path string, ff followFlags, sess *cli.ObsSession, dopts trace.DecodeOptions, stdout io.Writer) error {
	f, err := openInput(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ctx, span := obs.StartSpan(ctx, "follow")
	o := observe.New(observe.Options{
		Window: ff.window, KeepWindows: ff.keep,
		HalfLife: ff.halfLife, Warmup: ff.warmup,
		Bus: sess.Bus, Metrics: sess.Metrics, Marks: sess.Marks, Logger: sess.Logger, Context: ctx,
		OnEvent: func(ev observe.Event) { printFollowEvent(stdout, ev, ff.jsonOut) },
	})
	st, err := observe.Replay(f, o, observe.ReplayOptions{
		Dilate: ff.dilate, Decode: dopts, Flush: true,
	})
	span.End()
	if err != nil {
		return err
	}
	state, err := o.State()
	if err != nil {
		return err
	}
	if ff.statePath != "" {
		if err := os.WriteFile(ff.statePath, state, 0o644); err != nil {
			return err
		}
	}
	verdict := o.Last().Verdict
	if verdict == "" {
		verdict = "none"
	}
	if ff.jsonOut {
		raw, err := json.Marshal(followSummary{
			Kind: "summary", Records: st.Records, Windows: o.Windows(),
			ChangePoints: o.ChangePoints(), LastVerdict: verdict,
			StateSHA256: coord.Digest(state), Decode: st.Decode,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", raw)
	} else {
		fmt.Fprintf(stdout, "followed %d records over %d window(s): %d change-point(s), last verdict %s\n",
			st.Records, o.Windows(), o.ChangePoints(), verdict)
		fmt.Fprintf(stdout, "state sha256: %s\n", coord.Digest(state))
	}
	if err := sess.Close(); err != nil {
		return err
	}
	if st.Decode.RecordsSkipped > 0 {
		return cli.Partialf("follow complete, but %d malformed record(s) were skipped", st.Decode.RecordsSkipped)
	}
	return nil
}

// followSummary is the final line of -follow -json output.
type followSummary struct {
	Kind         string            `json:"kind"`
	Records      int64             `json:"records"`
	Windows      int64             `json:"windows"`
	ChangePoints int64             `json:"changepoints"`
	LastVerdict  string            `json:"last_verdict"`
	StateSHA256  string            `json:"state_sha256"`
	Decode       trace.DecodeStats `json:"decode_stats"`
}

// printFollowEvent renders one observatory event: a JSON line under
// -json, otherwise a fixed-layout text line keyed by event time.
func printFollowEvent(w io.Writer, ev observe.Event, jsonOut bool) {
	if jsonOut {
		raw, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "%s\n", raw)
		return
	}
	if ev.Kind == obs.EventChangePoint {
		fmt.Fprintf(w, "t=%-10.6g w=%-5d CHANGE %s: %s %s (%.4g from %.4g, score %.2f)\n",
			ev.TEnd, ev.Window, ev.Name, ev.Signal, ev.Direction, ev.Value, ev.Baseline, ev.Score)
		return
	}
	est := ev.Estimate
	if est == nil {
		return
	}
	fmt.Fprintf(w, "t=%-10.6g w=%-5d %-8s rate=%.4g/s disp=%.3g lag1=%+.2f hurst=%.3g alpha=%.3g p95=%.4g\n",
		ev.TEnd, ev.Window, est.Verdict, est.Rate, est.Dispersion, est.Lag1, est.Hurst, est.TailAlpha, est.P95)
}

// hasStdin reports whether any argument is the stdin marker "-".
func hasStdin(args []string) bool {
	for _, a := range args {
		if a == "-" {
			return true
		}
	}
	return false
}

// openInput opens a trace argument: "-" is stdin (wrapped so the
// caller's Close does not close the process's stdin), anything else a
// file.
func openInput(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// normalizeBase turns an address argument into a base URL (":8087" →
// "http://127.0.0.1:8087"; full URLs pass through, trailing slash
// trimmed) — the wanmon address convention.
func normalizeBase(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimRight(addr, "/")
	}
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	return "http://" + addr
}

// streamReport is the -json output schema.
type streamReport struct {
	File        string            `json:"file"`
	Name        string            `json:"name"`
	HorizonS    float64           `json:"horizon_s"`
	Shards      int               `json:"shards"`
	StateSHA256 string            `json:"state_sha256"`
	Decode      trace.DecodeStats `json:"decode_stats"`
	Summary     stream.Summary    `json:"summary"`
}

func printSummary(w io.Writer, res *stream.Result, sum stream.Summary, digest string) {
	fmt.Fprintf(w, "%s trace %q: %d records over %.2f h (%d shards, one pass)\n\n",
		sum.TraceKind, res.Header.Name, sum.Records, res.Header.Horizon/3600, res.Shards)
	if res.Stats.RecordsSkipped > 0 {
		fmt.Fprintf(w, "decode: %d record(s) skipped\n\n", res.Stats.RecordsSkipped)
	}
	for _, name := range res.Sketch.DimNames() {
		d := sum.Dims[name]
		fmt.Fprintf(w, "%-9s n=%d  mean %.4g  sd %.4g  min %.4g  max %.4g  p50 %.4g  p90 %.4g  p99 %.4g\n",
			name, d.Count, d.Mean, d.StdDev, d.Min, d.Max, d.P50, d.P90, d.P99)
	}
	fmt.Fprintf(w, "\narrivals: %.4g /s over %d windows, dispersion %.3g (Poisson: 1), lag-1 %.3f\n",
		sum.Rate, sum.Windows, sum.Dispersion, sum.Lag1)
	if sum.VTSlope != 0 {
		fmt.Fprintf(w, "variance-time slope %.2f (Poisson: -1.00) -> H_vt = %.2f\n",
			sum.VTSlope, sum.HurstVT)
	}
	fmt.Fprintf(w, "state sha256: %s\n", digest)
}
