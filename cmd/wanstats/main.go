// Command wanstats analyzes a trace file with the paper's methodology.
// It auto-detects the trace kind from the header.
//
// For connection traces it runs the Appendix A Poisson tests per
// protocol (Fig. 2) and the Section VI burst analyses; for packet
// traces it runs the variance-time and Whittle/Beran self-similarity
// assessment (Section VII).
//
// Usage:
//
//	wanstats trace.conn
//	wanstats -interval 600 trace.conn
//	wanstats -bin 0.01 trace.pkt
//	wanstats -lenient damaged.conn   # skip malformed records, report them
//	wanstats -lenient -json damaged.conn   # machine-readable report with
//	                                       # full decode accounting
//
// The paper's own traces were messy (truncated captures, dropped
// SYN/FIN records — Section II); -lenient ingests such a trace by
// skipping malformed records with full accounting instead of
// aborting. The shared observability flags apply (-serve for a live
// monitor, -log for structured stderr logs, -metrics-out/-trace-out
// for exports; see internal/cli). Exit codes follow the internal/cli
// contract: 0 success, 1 hard failure (unreadable trace), 2 usage
// error, 3 partial success (-lenient decode skipped records; the
// analysis still ran).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"wantraffic/internal/cli"
	"wantraffic/internal/core"
	"wantraffic/internal/fit"
	"wantraffic/internal/obs"
	"wantraffic/internal/poisson"
	"wantraffic/internal/selfsim"
	"wantraffic/internal/stats"
	"wantraffic/internal/trace"
)

func main() {
	os.Exit(cli.Main("wanstats", run))
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("wanstats", stderr)
	interval := fs.Float64("interval", 3600, "Poisson-test interval length (s) for connection traces")
	bin := fs.Float64("bin", 0.01, "count-process bin width (s) for packet traces")
	verbose := fs.Bool("v", false, "show per-interval Poisson test outcomes")
	lenient := fs.Bool("lenient", false, "skip malformed records (with accounting) instead of aborting")
	maxLine := fs.Int("max-line-bytes", trace.DefaultMaxLineBytes, "hard limit on a single trace line")
	maxRecords := fs.Int("max-records", trace.DefaultMaxRecords, "hard limit on decoded records")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report (decode accounting + analysis text)")
	obsFlags := cli.RegisterObs(fs)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if err := cli.FirstErr(
		cli.Positive("interval", *interval),
		cli.Positive("bin", *bin),
		cli.Positive("max-line-bytes", float64(*maxLine)),
		cli.Positive("max-records", float64(*maxRecords)),
	); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("usage: wanstats [flags] <tracefile>")
	}
	sess, err := obsFlags.Start(stderr)
	if err != nil {
		return err
	}
	defer sess.Close()
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	opts := trace.DecodeOptions{Lenient: *lenient, MaxLineBytes: *maxLine,
		MaxRecords: *maxRecords, Metrics: sess.Metrics}

	ctx := obs.WithTracer(context.Background(), sess.Tracer)
	_, dspan := obs.StartSpan(ctx, "decode")
	dec, err := decode(f, opts, *interval, *bin, *verbose)
	if err != nil {
		dspan.End()
		return err
	}
	dspan.SetAttr("kind", dec.kind)
	dspan.SetAttrInt("records", int64(dec.records))
	dspan.End()

	out := io.Writer(stdout)
	var buf bytes.Buffer
	if *jsonOut {
		out = &buf
	} else {
		reportDecode(stdout, *lenient, dec.stats)
	}
	_, aspan := obs.StartSpan(ctx, "analyze")
	aerr := dec.analyze(out)
	aspan.End()
	if aerr != nil {
		return aerr
	}

	if *jsonOut {
		// The machine-readable report carries the full decode
		// accounting — lenient skips were previously visible only in
		// the human-readable preamble.
		raw, err := json.MarshalIndent(jsonReport{
			File:     fs.Arg(0),
			Kind:     dec.kind,
			Records:  dec.records,
			HorizonS: dec.horizon,
			Decode:   dec.stats,
			Analysis: buf.String(),
		}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", raw)
	}
	if err := sess.Close(); err != nil {
		return err
	}
	if dec.stats.RecordsSkipped > 0 {
		return cli.Partialf("analysis complete, but %d malformed record(s) were skipped", dec.stats.RecordsSkipped)
	}
	return nil
}

// jsonReport is the -json output schema: identification, decode
// accounting (trace.DecodeStats verbatim) and the analysis text.
type jsonReport struct {
	File     string            `json:"file"`
	Kind     string            `json:"kind"` // "conn" or "packet"
	Records  int               `json:"records"`
	HorizonS float64           `json:"horizon_s"`
	Decode   trace.DecodeStats `json:"decode_stats"`
	Analysis string            `json:"analysis"`
}

// decoded is a successfully ingested trace plus its deferred analysis.
type decoded struct {
	kind    string
	records int
	horizon float64
	stats   trace.DecodeStats
	analyze func(w io.Writer) error
}

// maxSlots bounds the intervals (connection traces) or bins (packet
// traces) an analysis splits the horizon into, each one slot of a
// slice: a 2 h packet trace at the default 0.01 s bins needs 720 000.
const maxSlots = 1 << 26

// decode ingests a trace of either kind under the given options; the
// header names the kind. Every analysis splits the header's horizon
// into intervals or bins, so a horizon that is not a positive finite
// number, or that would split into more than maxSlots of them, is
// refused here, for both kinds and both encodings.
func decode(r io.Reader, opts trace.DecodeOptions, interval, bin float64, verbose bool) (*decoded, error) {
	br := bufio.NewReader(r)
	kind, _, err := trace.SniffHeader(br)
	if err != nil {
		return nil, err
	}
	var dec *decoded
	if kind == trace.KindConn {
		tr, ds, err := trace.ReadConnTrace(br, opts)
		if err != nil {
			return nil, err
		}
		dec = &decoded{"conn", len(tr.Conns), tr.Horizon, ds,
			func(w io.Writer) error { return connReport(w, tr, interval, verbose) }}
	} else {
		tr, ds, err := trace.ReadPacketTrace(br, opts)
		if err != nil {
			return nil, err
		}
		dec = &decoded{"packet", len(tr.Packets), tr.Horizon, ds,
			func(w io.Writer) error { return packetReport(w, tr, bin) }}
	}
	if !(dec.horizon > 0) || math.IsInf(dec.horizon, 1) {
		return nil, fmt.Errorf("%s trace horizon %v s is not a positive finite number", dec.kind, dec.horizon)
	}
	unit, width := "interval", interval
	if dec.kind == "packet" {
		unit, width = "bin", bin
	}
	if dec.horizon/width > maxSlots {
		return nil, fmt.Errorf("%s trace horizon %v s at a %v s %s needs more than the %d %ss the analysis allows",
			dec.kind, dec.horizon, width, unit, maxSlots, unit)
	}
	return dec, nil
}

// reportDecode surfaces lenient-mode accounting before the analysis.
func reportDecode(w io.Writer, lenient bool, ds trace.DecodeStats) {
	if !lenient || ds.RecordsSkipped == 0 {
		return
	}
	fmt.Fprintf(w, "%s\n", ds)
	for _, e := range ds.Errors {
		fmt.Fprintf(w, "  skipped: %s\n", e)
	}
	fmt.Fprintln(w)
}

func connReport(w io.Writer, tr *trace.ConnTrace, interval float64, verbose bool) error {
	fmt.Fprintf(w, "connection trace %q: %d connections over %.1f h\n\n",
		tr.Name, len(tr.Conns), tr.Horizon/3600)
	fmt.Fprintf(w, "Poisson tests (Appendix A), %.0f s intervals:\n", interval)
	for _, p := range trace.Protocols() {
		res := core.EvaluatePoisson(tr, p, interval)
		if res.Tested == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-8s %s\n", p, res)
		if verbose {
			for _, iv := range res.Intervals {
				mark := func(ok bool) string {
					if ok {
						return "pass"
					}
					return "FAIL"
				}
				fmt.Fprintf(w, "    t=%7.0fs n=%4d  exp %s (A*=%6.2f)  indep %s (r1=%+.3f)\n",
					iv.Start, iv.Arrivals, mark(iv.ExpPass), iv.AStar, mark(iv.IndepPass), iv.Lag1)
			}
		}
	}
	bursts := core.ExtractBursts(tr, core.DefaultBurstCutoff)
	if len(bursts) > 0 {
		fmt.Fprintf(w, "\nFTPDATA bursts (4 s rule): %d bursts\n", len(bursts))
		for _, frac := range []float64{0.005, 0.02, 0.10} {
			fmt.Fprintf(w, "  top %4.1f%% of bursts carry %5.1f%% of FTPDATA bytes\n",
				100*frac, 100*core.TailShare(bursts, frac))
		}
		if len(bursts) >= 100 {
			tail := fit.HillTailFraction(core.BurstSizesDescending(bursts), 0.05)
			fmt.Fprintf(w, "  upper-5%% burst-size tail: Pareto beta = %.2f (paper: 0.9-1.4)\n", tail.Beta)
		}
		if gaps := core.IntraSessionSpacings(tr); len(gaps) >= 50 {
			logs := make([]float64, 0, len(gaps))
			for _, g := range gaps {
				if g > 0 {
					logs = append(logs, math.Log(g))
				}
			}
			if len(logs) >= 50 {
				_, aStar := poisson.NormalADTest(logs, 0.05)
				fmt.Fprintf(w, "  intra-session spacing log-normality A* = %.1f (bimodality inflates it; Fig. 8)\n", aStar)
			}
		}
	}
	return nil
}

func packetReport(w io.Writer, tr *trace.PacketTrace, bin float64) error {
	fmt.Fprintf(w, "packet trace %q: %d packets over %.2f h\n\n",
		tr.Name, len(tr.Packets), tr.Horizon/3600)
	counts := stats.CountProcess(tr.AllTimes(), bin, tr.Horizon)
	ss := core.AssessSelfSimilarity(counts, 1000)
	fmt.Fprintf(w, "count process at %.3g s bins:\n", bin)
	fmt.Fprintf(w, "  mean %.2f pkts/bin, variance %.2f\n", stats.Mean(counts), stats.Variance(counts))
	fmt.Fprintf(w, "  variance-time slope %.2f (Poisson: -1.00) -> H_vt = %.2f\n", ss.VTSlope, ss.HFromVT)
	fmt.Fprintf(w, "  Whittle H = %.3f (95%% CI %.3f..%.3f)\n", ss.Whittle.H, ss.Whittle.CILow, ss.Whittle.CIHigh)
	fmt.Fprintf(w, "  Beran goodness-of-fit z = %.2f, p = %.3f\n", ss.Whittle.BeranZ, ss.Whittle.BeranP)
	agg := counts
	if len(agg) > 8192 {
		agg = stats.SumAggregate(agg, (len(agg)+8191)/8192)
	}
	far := selfsim.WhittleFARIMA(agg)
	fmt.Fprintf(w, "  fARIMA(0,d,0) H = %.3f (Beran z = %.2f)\n", far.H, far.BeranZ)
	fmt.Fprintf(w, "  R/S H = %.3f, wavelet H = %.3f, GPH H = %.3f\n",
		selfsim.HurstRS(agg), selfsim.HurstWavelet(agg), selfsim.HurstGPH(agg))
	switch {
	case ss.ConsistentWithFGN:
		fmt.Fprintln(w, "  verdict: consistent with fractional Gaussian noise (self-similar)")
	case ss.LargeScaleCorrelated:
		fmt.Fprintln(w, "  verdict: large-scale correlations, but not well-modeled as fGn")
	default:
		fmt.Fprintln(w, "  verdict: no evidence against short-range (Poisson-like) behaviour")
	}
	return nil
}
