// Command wancoord is the merge coordinator for distributed sketch
// workers (internal/coord): wanstream -worker processes each ingest
// one shard of a trace and POST their serialized sketch state here;
// wancoord folds the states in canonical shard order and serves the
// combined results while the fleet runs.
//
// Usage:
//
//	wancoord serve -workers 4                     wait for 4 workers
//	wancoord serve -listen :8087 -token s3cret    guard mutating routes
//	wancoord serve -workers 4 -snapshot c.json    survive restarts
//	wancoord serve -workers 4 -snapshot c.json -resume
//	wancoord serve -workers 4 -wait 2m            give up after 2m
//	wancoord split -n 4 -o /tmp/shard trace.conn  shard a trace
//
// serve runs the shared monitor session on -listen (its -token guards
// the mutating routes, as -serve-token does elsewhere), mounts the
// coordinator API (POST /v1/upload, GET /v1/results, GET /v1/state,
// POST /v1/snapshot) beside the monitor's /metrics, /healthz and
// /events, then prints "coordinator: serving on URL" to stderr
// (scripts attach by scraping the line, same contract as the monitor
// banner). It exits when every expected worker has finalized — or
// when -wait elapses, or POST /quitquitquit — printing the combined
// results JSON to stdout, and honours -serve-linger like every -serve
// tool.
//
// split decomposes a trace record-by-record, round-robin, into N
// shard files with the input's header and encoding preserved — the
// exact decomposition under which N workers at shards 0..N-1
// reproduce the single-process sketch byte-for-byte.
//
// Exit codes follow the internal/cli contract: 0 success (serve: run
// complete), 1 hard failure, 2 usage error, 3 partial success (serve
// ended with workers missing or unfinalized — results still cover the
// states that arrived).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"wantraffic/internal/cli"
	"wantraffic/internal/coord"
	"wantraffic/internal/trace"
)

func main() {
	os.Exit(cli.Main("wancoord", run))
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return cli.Usagef("usage: wancoord <serve|split> [flags] ...")
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:], stdout, stderr)
	case "split":
		return runSplit(args[1:], stdout, stderr)
	default:
		return cli.Usagef("unknown subcommand %q (want serve or split)", args[0])
	}
}

func runServe(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("wancoord serve", stderr)
	listen := fs.String("listen", "127.0.0.1:0", "address to serve the coordinator API and monitor on")
	workers := fs.Int("workers", 0, "expected worker count; serve exits once all have finalized (0: serve until -wait or /quitquitquit)")
	snapshot := fs.String("snapshot", "", "persist coordinator state atomically to this file after every accepted upload")
	resume := fs.Bool("resume", false, "adopt an existing -snapshot file (digest-verified) instead of refusing to start over it")
	staleAfter := fs.Duration("stale-after", 10*time.Second, "liveness horizon: a worker silent longer than this counts as stale")
	token := fs.String("token", "", "shared secret required on mutating endpoints (uploads, snapshots, /quitquitquit)")
	wait := fs.Duration("wait", 0, "maximum time to serve before reporting whatever arrived (0: no limit)")
	obsFlags := cli.RegisterObs(fs)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return cli.Usagef("usage: wancoord serve [flags]")
	}
	if *workers < 0 {
		return cli.Usagef("-workers must be >= 0, got %d", *workers)
	}
	if err := cli.FirstErr(cli.Positive("stale-after", staleAfter.Seconds())); err != nil {
		return err
	}
	if *wait < 0 {
		return cli.Usagef("-wait must be >= 0")
	}
	if *listen == "" {
		return cli.Usagef("-listen must name an address")
	}
	if *resume && *snapshot == "" {
		return cli.Usagef("-resume requires -snapshot")
	}
	if !*resume && *snapshot != "" {
		if _, err := os.Stat(*snapshot); err == nil {
			return fmt.Errorf("snapshot %s already exists; pass -resume to adopt it or remove it first", *snapshot)
		}
	}

	// Serving is this subcommand's job, so -listen and -token stand in
	// for the shared -serve and -serve-token: the coordinator's routes
	// ride on the same monitor session as every other tool's.
	if obsFlags.Serve != "" || obsFlags.ServeToken != "" {
		return cli.Usagef("wancoord serve uses -listen and -token, not -serve/-serve-token")
	}
	obsFlags.Serve, obsFlags.ServeToken = *listen, *token
	sess, err := obsFlags.Start(stderr)
	if err != nil {
		return err
	}
	defer sess.Close()
	c, err := coord.New(coord.Options{
		ExpectedWorkers: *workers,
		StaleAfter:      *staleAfter,
		Snapshot:        *snapshot,
		Metrics:         sess.Metrics,
		Marks:           sess.Marks,
		Bus:             sess.Bus,
		Logger:          sess.Logger,
	})
	if err != nil {
		return err
	}
	srv := sess.Server
	for path, h := range c.Handlers(srv.Guard) {
		srv.Handle(path, h)
	}
	fmt.Fprintf(stderr, "coordinator: serving on %s\n", srv.URL())
	sess.Logger.Info("coordinator serving", "url", srv.URL(), "expected_workers", *workers)

	// Keep the per-worker staleness/liveness gauges current while
	// serving, so wanmon watch and /metrics see degradation live.
	stopGauges := make(chan struct{})
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.RefreshGauges()
			case <-stopGauges:
				return
			}
		}
	}()

	var timeout <-chan time.Time
	if *wait > 0 {
		t := time.NewTimer(*wait)
		defer t.Stop()
		timeout = t.C
	}
	var reason string
	if *workers > 0 {
		select {
		case <-c.Done():
			reason = "complete"
		case <-timeout:
			reason = "wait elapsed"
		case <-srv.QuitRequested():
			reason = "quit requested"
		}
	} else {
		select {
		case <-timeout:
			reason = "wait elapsed"
		case <-srv.QuitRequested():
			reason = "quit requested"
		}
	}
	close(stopGauges)
	sess.Logger.Info("coordinator stopping", "reason", reason)

	res, err := c.Results()
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	if err := sess.Close(); err != nil {
		return err
	}
	if res.Status != coord.ResultComplete {
		return cli.Partialf("run %s (%s): %d/%d expected workers finalized",
			res.Status, reason, res.Finalized, res.Expected)
	}
	return nil
}

func runSplit(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("wancoord split", stderr)
	n := fs.Int("n", 4, "number of shard files")
	out := fs.String("o", "", "output path prefix (default: input path without extension, plus .shard)")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if err := cli.Positive("n", float64(*n)); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("usage: wancoord split [-n N] [-o prefix] <tracefile>")
	}
	in := fs.Arg(0)
	ext := filepath.Ext(in)
	prefix := *out
	if prefix == "" {
		prefix = strings.TrimSuffix(in, ext) + ".shard"
	}

	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	kind, binary, err := trace.SniffHeader(br)
	if err != nil {
		return err
	}

	// Record-level round-robin: record i lands in shard i mod n. This
	// is the decomposition the worker/coordinator determinism contract
	// is defined against — see DESIGN.md §13. Each shard keeps the
	// input's encoding.
	var shard func(w io.Writer, i int) (records int, err error)
	switch kind {
	case trace.KindConn:
		tr, _, err := trace.ReadConnTrace(br, trace.DecodeOptions{})
		if err != nil {
			return err
		}
		shards := make([]*trace.ConnTrace, *n)
		for i := range shards {
			shards[i] = &trace.ConnTrace{Name: tr.Name, Horizon: tr.Horizon}
		}
		for i, c := range tr.Conns {
			s := shards[i%*n]
			s.Conns = append(s.Conns, c)
		}
		shard = func(w io.Writer, i int) (int, error) {
			return len(shards[i].Conns), trace.WriteConnTrace(w, shards[i], binary)
		}
	case trace.KindPacket:
		tr, _, err := trace.ReadPacketTrace(br, trace.DecodeOptions{})
		if err != nil {
			return err
		}
		shards := make([]*trace.PacketTrace, *n)
		for i := range shards {
			shards[i] = &trace.PacketTrace{Name: tr.Name, Horizon: tr.Horizon}
		}
		for i, p := range tr.Packets {
			s := shards[i%*n]
			s.Packets = append(s.Packets, p)
		}
		shard = func(w io.Writer, i int) (int, error) {
			return len(shards[i].Packets), trace.WritePacketTrace(w, shards[i], binary)
		}
	default:
		return fmt.Errorf("unsupported trace kind %v", kind)
	}
	for i := 0; i < *n; i++ {
		path := fmt.Sprintf("%s%d%s", prefix, i, ext)
		g, err := os.Create(path)
		if err != nil {
			return err
		}
		records, err := shard(g, i)
		if err != nil {
			g.Close()
			return err
		}
		if err := g.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "split: wrote %s (%d records)\n", path, records)
		fmt.Fprintln(stdout, path)
	}
	return nil
}
