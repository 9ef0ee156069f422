// Command wangen generates synthetic wide-area traffic traces using
// the paper's source models and writes them in the text trace format
// read by wanstats.
//
// Usage:
//
//	wangen -list                          list built-in datasets
//	wangen -dataset LBL-1 -o lbl1.conn    build a Table I analog
//	wangen -dataset LBL-PKT-1 -o p1.pkt   build a Table II analog
//	wangen -telnet 137 -hours 2 -o t.pkt  FULL-TEL packet trace
//	wangen -ftp 400 -days 3 -o f.conn     FTP connection trace
//
// With no -o the trace is written to stdout. The shared observability
// flags apply: -serve exposes the run live (/metrics, /healthz,
// /events, /debug/pprof), -log json writes structured log lines to
// stderr, and -metrics-out/-trace-out export artifacts on exit. Exit
// codes follow the internal/cli contract: 0 success, 1 hard failure
// (output file not writable), 2 usage error (bad flag values, unknown
// dataset, nothing to do).
package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"

	"wantraffic/internal/cli"
	"wantraffic/internal/datasets"
	"wantraffic/internal/model"
	"wantraffic/internal/obs"
	"wantraffic/internal/trace"
)

func main() {
	os.Exit(cli.Main("wangen", run))
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("wangen", stderr)
	list := fs.Bool("list", false, "list built-in dataset names")
	dataset := fs.String("dataset", "", "built-in dataset name to generate")
	telnet := fs.Float64("telnet", 0, "FULL-TEL connections per hour (packet trace)")
	ftp := fs.Float64("ftp", 0, "FTP sessions per day (connection trace)")
	hours := fs.Float64("hours", 1, "trace duration for -telnet")
	days := fs.Int("days", 1, "trace duration for -ftp")
	seed := fs.Int64("seed", 1, "random seed for -telnet/-ftp")
	out := fs.String("o", "", "output file (default stdout)")
	binaryOut := fs.Bool("binary", false, "write the compact binary trace format")
	obsFlags := cli.RegisterObs(fs)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if err := cli.FirstErr(
		cli.NonNegative("telnet", *telnet),
		cli.NonNegative("ftp", *ftp),
		cli.Positive("hours", *hours),
		cli.Positive("days", float64(*days)),
	); err != nil {
		return err
	}
	if *list {
		for _, s := range datasets.TableI() {
			fmt.Fprintf(stdout, "%-12s connection trace, %d days\n", s.Name, s.Days)
		}
		for _, s := range datasets.TableII() {
			fmt.Fprintf(stdout, "%-12s packet trace, %.0f h\n", s.Name, s.Hours)
		}
		return nil
	}

	sess, err := obsFlags.Start(stderr)
	if err != nil {
		return err
	}
	defer sess.Close()
	ctx := obs.WithTracer(context.Background(), sess.Tracer)

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	// generate runs under a "build:<name>" span, then the write under
	// "write", so a -trace-out export shows where the time went.
	generate := func() error {
		switch {
		case *dataset != "":
			for _, s := range datasets.TableI() {
				if s.Name == *dataset {
					_, sp := obs.StartSpan(ctx, "build:"+s.Name)
					tr := datasets.BuildConn(s)
					sp.SetAttrInt("records", int64(len(tr.Conns)))
					sp.End()
					return timedWrite(ctx, func() error { return trace.WriteConnTrace(w, tr, *binaryOut) })
				}
			}
			for _, s := range datasets.TableII() {
				if s.Name == *dataset {
					_, sp := obs.StartSpan(ctx, "build:"+s.Name)
					tr := datasets.BuildPacket(s)
					sp.SetAttrInt("records", int64(len(tr.Packets)))
					sp.End()
					return timedWrite(ctx, func() error { return trace.WritePacketTrace(w, tr, *binaryOut) })
				}
			}
			return cli.Usagef("unknown dataset %q (try -list)", *dataset)
		case *telnet > 0:
			rng := rand.New(rand.NewSource(*seed))
			_, sp := obs.StartSpan(ctx, "build:full-tel")
			tr := model.FullTelnet(rng, "full-tel", *telnet, *hours*3600)
			sp.SetAttrInt("records", int64(len(tr.Packets)))
			sp.End()
			return timedWrite(ctx, func() error { return trace.WritePacketTrace(w, tr, *binaryOut) })
		case *ftp > 0:
			rng := rand.New(rand.NewSource(*seed))
			_, sp := obs.StartSpan(ctx, "build:ftp")
			conns := model.GenerateFTP(rng, model.DefaultFTPConfig(*ftp, *days))
			tr := &trace.ConnTrace{Name: "ftp", Horizon: float64(*days) * 86400, Conns: conns}
			tr.SortByStart()
			sp.SetAttrInt("records", int64(len(tr.Conns)))
			sp.End()
			return timedWrite(ctx, func() error { return trace.WriteConnTrace(w, tr, *binaryOut) })
		default:
			return cli.Usagef("nothing to do: pass -dataset, -telnet or -ftp (see -h)")
		}
	}
	if err := generate(); err != nil {
		return err
	}
	return sess.Close()
}

// timedWrite runs the encode under a "write" span.
func timedWrite(ctx context.Context, write func() error) error {
	_, sp := obs.StartSpan(ctx, "write")
	defer sp.End()
	return write()
}
