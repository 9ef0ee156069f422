// Command wanload is the live traffic-synthesis daemon: it
// instantiates the simulated user population a scenario spec calls
// for (thousands to millions of concurrent sources), merges every
// user's event stream through one deterministic event-time heap, and
// emits the resulting connection or packet records in the standard
// trace formats — to stdout, a file, or one TCP client — at full
// speed or paced against the wall clock.
//
// Usage:
//
//	wanload scenario.json                      emit at full speed to stdout
//	wanload -seed 42 -dilate 0 scenario.json   deterministic full-speed run
//	wanload -dilate 60 scenario.json | wanstream -follow -dilate 60 -
//	wanload -preset LBL-3 -preset-users 64     Table I analog population
//	wanload -duration 10m -binary -o out.conn scenario.json
//	wanload -listen :9099 scenario.json        serve one TCP client
//	wanload -serve :8077 -serve-token s3 -dilate 60 scenario.json
//
// The scenario file (or "-" for stdin) names its sources: protocol,
// arrival pattern (uniform, poisson, diurnal, bursty, pareto, tcplib,
// fulltel, ftpburst), user count and aggregate rate, plus optional
// scheduled phases that rescale or swap a pattern mid-run. -users
// multiplies every population, -scale every rate.
//
// Pacing follows the observe.Replay contract: -dilate is trace
// seconds emitted per wall second (1 = real time, 0 = full speed),
// and pacing never touches record contents — the stream is
// byte-identical at any dilation for a given seed.
//
// Under -serve the monitor server exposes live gauges (load.records,
// load.rate.target, load.rate.achieved.wall, load.users, per-protocol
// counters) and the runtime reshape endpoint: POST a JSON body like
// {"source": "telnet", "scale": 4} or {"pattern": "bursty"} to
// /load/reshape (guarded by -serve-token, and mounted once the daemon
// is built, before the "load: scenario" line) and the daemon reshapes
// the running population at the trace position it has reached,
// publishing a load_reshape event on /events. When the scenario came
// from a real file, SIGHUP re-reads it and applies rate and pattern
// changes as live reshapes (origin "sighup"); structural changes are
// rejected with a log line and the run continues unchanged.
//
// -pipeline-id stamps an identity into the trace framing (text: a
// "#pipeline <id>" comment; binary: a sentinel block) that downstream
// stages adopt, so wancoord and wanstream can report per-pipeline
// end-to-end freshness. "auto" derives a stable ID from the seed and
// scenario name. Exit codes follow the internal/cli contract: 0
// success (including a clean interrupt), 1 hard failure, 2 usage
// error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"wantraffic/internal/cli"
	"wantraffic/internal/load"
	"wantraffic/internal/obs"
)

func main() {
	os.Exit(cli.Main("wanload", run))
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("wanload", stderr)
	seed := fs.Int64("seed", 1, "scenario seed; every simulated user derives an independent stream from it")
	dilate := fs.Float64("dilate", 0, "trace seconds emitted per wall second (1: real time, 0: full speed); never changes record contents")
	duration := fs.Duration("duration", 0, "override the scenario horizon (e.g. 60s, 10m); 0 keeps the scenario's")
	users := fs.Float64("users", 0, "multiply every source's user population (0: keep scenario counts)")
	scale := fs.Float64("scale", 0, "multiply every source's configured rate (0: keep scenario rates)")
	preset := fs.String("preset", "", "build the scenario from this Table I dataset name instead of a file")
	presetUsers := fs.Int("preset-users", 32, "with -preset: users per protocol source")
	pipelineID := fs.String("pipeline-id", "", `stamp this pipeline ID into the trace framing for end-to-end freshness ("auto": derive from seed and scenario name)`)
	out := fs.String("o", "", "write the trace to this file (default stdout)")
	listen := fs.String("listen", "", "listen on this TCP address and stream the trace to the first client")
	binaryOut := fs.Bool("binary", false, "emit the compact binary trace framing (streamed count)")
	reportPath := fs.String("report", "", "write the final run report as JSON to this file")
	obsFlags := cli.RegisterObs(fs)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if err := cli.FirstErr(
		cli.NonNegative("dilate", *dilate),
		cli.NonNegative("duration", float64(*duration)),
		cli.NonNegative("users", *users),
		cli.NonNegative("scale", *scale),
		cli.Positive("preset-users", float64(*presetUsers)),
	); err != nil {
		return err
	}
	if *out != "" && *listen != "" {
		return cli.Usagef("-o and -listen are mutually exclusive")
	}

	var sc *load.Scenario
	switch {
	case *preset != "" && fs.NArg() > 0:
		return cli.Usagef("-preset and a scenario file are mutually exclusive")
	case *preset != "":
		var err error
		if sc, err = load.Preset(*preset, *presetUsers); err != nil {
			return cli.Usagef("%v", err)
		}
	case fs.NArg() == 1:
		var err error
		if sc, err = load.LoadScenario(fs.Arg(0)); err != nil {
			if os.IsNotExist(err) {
				return err
			}
			return cli.Usagef("%v", err)
		}
	default:
		return cli.Usagef("usage: wanload [flags] <scenario.json | -> (or -preset <name>)")
	}

	sess, err := obsFlags.Start(stderr)
	if err != nil {
		return err
	}
	defer sess.Close()

	pid := *pipelineID
	if pid == "auto" {
		pid = obs.DerivePipelineID(*seed, sc.Name)
	}
	d, err := load.New(sc, load.Options{
		Seed: *seed, Dilate: *dilate, Duration: duration.Seconds(),
		UserScale: *users, Scale: *scale, Binary: *binaryOut,
		PipelineID: pid, Marks: sess.Marks,
		Metrics: sess.Metrics, Bus: sess.Bus, Logger: sess.Logger,
	})
	if err != nil {
		return cli.Usagef("%v", err)
	}
	if sess.Server != nil {
		sess.Server.Handle("/load/reshape", sess.Server.Guard(d.ControlHandler()))
	}
	fmt.Fprintf(stderr, "load: scenario %q: %d user(s) across %d source(s), horizon %.6gs\n",
		sc.Name, d.Users(), len(sc.Sources), d.Horizon())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// SIGHUP hot-reload: only meaningful when the scenario came from a
	// re-readable file (not a preset and not stdin). The handler
	// re-parses the file and hands it to Reload, which validates the
	// diff atomically — a bad spec is rejected with a log line and the
	// running population is untouched.
	if *preset == "" && fs.NArg() == 1 && fs.Arg(0) != "-" {
		path := fs.Arg(0)
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for {
				select {
				case <-hup:
					next, err := load.LoadScenario(path)
					if err == nil {
						err = d.Reload(next)
					}
					if err != nil {
						sess.Logger.Warn("load reload rejected", "path", path, "err", err)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	w, closeOut, err := openOutput(ctx, *out, *listen, stdout, stderr)
	if err != nil {
		return err
	}

	rep, runErr := d.Run(ctx, w)
	if cerr := closeOut(); runErr == nil && cerr != nil {
		runErr = cerr
	}
	// A signal interrupt ends the run cleanly: the stream is flushed
	// at a record boundary (the streamed binary framing and the text
	// format both tolerate truncation at a boundary).
	interrupted := errors.Is(runErr, context.Canceled) && ctx.Err() != nil
	if runErr != nil && !interrupted {
		return runErr
	}

	if *reportPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportPath, raw, 0o644); err != nil {
			return err
		}
	}
	status := "done"
	if interrupted {
		status = "interrupted"
	}
	fmt.Fprintf(stderr, "load: %s: %d record(s) over %.6g trace s in %.3g wall s (%.4g/s wall, %d reshape(s))\n",
		status, rep.Records, rep.TraceSeconds, rep.WallSeconds, rep.RateWall, rep.Reshapes)
	return sess.Close()
}

// openOutput resolves the trace destination: a file under -o, the
// first client of a listening socket under -listen, stdout otherwise.
// The returned close function finalizes the destination (and is a
// no-op for stdout).
func openOutput(ctx context.Context, out, listen string, stdout io.Writer, stderr io.Writer) (io.Writer, func() error, error) {
	switch {
	case out != "":
		f, err := os.Create(out)
		if err != nil {
			return nil, nil, err
		}
		return f, f.Close, nil
	case listen != "":
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stderr, "load: listening on %s\n", ln.Addr())
		// Unblock Accept when the run context is cancelled.
		done := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
			case <-done:
			}
			ln.Close()
		}()
		conn, err := ln.Accept()
		close(done)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			return nil, nil, err
		}
		fmt.Fprintf(stderr, "load: streaming to %s\n", conn.RemoteAddr())
		return conn, conn.Close, nil
	default:
		return stdout, func() error { return nil }, nil
	}
}
