package cli

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wantraffic/internal/monitor"
	"wantraffic/internal/obs"
)

// ObsFlags bundles the observability flags shared by the tools:
// metrics and trace export, CPU/heap profiling, a progress ticker,
// structured logging, and the live monitor server. Register them with
// RegisterObs, then Start a session after parsing.
type ObsFlags struct {
	MetricsOut string
	TraceOut   string
	CPUProfile string
	MemProfile string
	Progress   bool
	// Serve, when non-empty, runs the live telemetry server
	// (internal/monitor) on this address for the whole session.
	Serve string
	// ServeLinger keeps the monitor serving this long after the tool's
	// work finishes, so short runs stay observable; POST /quitquitquit
	// ends the linger early. Requires Serve.
	ServeLinger time.Duration
	// LogFormat selects structured logging on stderr: "json"
	// (deterministic single-line JSON, internal/obs handler), "text"
	// (slog text handler), or "" for no logging.
	LogFormat string
	// ServeToken, when non-empty, guards the monitor's mutating
	// endpoints (POST /quitquitquit and any route a tool mounts
	// through Server.Guard) behind a shared secret; unauthenticated
	// requests get 403.
	ServeToken string
	// HistoryInterval is the self-scrape period of the in-process
	// metrics history served at /metrics/history under -serve
	// (0 disables the scrape ticker; the endpoint stays mounted).
	HistoryInterval time.Duration
	// HistoryCap is the per-series ring capacity of that history.
	HistoryCap int

	tool string
}

// RegisterObs registers the shared observability flags on fs. The
// returned struct is populated by fs.Parse; the flag set's name up to
// its first space (the command, without a subcommand such as
// "wancoord serve"'s) is reported as the tool name on /healthz.
func RegisterObs(fs *flag.FlagSet) *ObsFlags {
	tool, _, _ := strings.Cut(fs.Name(), " ")
	o := &ObsFlags{tool: tool}
	fs.StringVar(&o.MetricsOut, "metrics-out", "",
		"write a metrics snapshot as JSON to this file on exit")
	fs.StringVar(&o.TraceOut, "trace-out", "",
		"write the run's span tree as Chrome trace-event JSON to this file on exit (load in chrome://tracing or Perfetto)")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "",
		"write a CPU profile to this file (inspect with go tool pprof)")
	fs.StringVar(&o.MemProfile, "memprofile", "",
		"write a heap profile to this file on exit (inspect with go tool pprof)")
	fs.BoolVar(&o.Progress, "progress", false,
		"print a progress line to stderr every 2s while running")
	fs.StringVar(&o.Serve, "serve", "",
		"serve live telemetry on this address while running (/metrics, /healthz, /events, /debug/pprof); :0 picks a free port")
	fs.DurationVar(&o.ServeLinger, "serve-linger", 0,
		"with -serve: keep serving this long after the work finishes (POST /quitquitquit ends the linger early)")
	fs.StringVar(&o.LogFormat, "log", "",
		"structured log format on stderr: json (deterministic one-line JSON) or text; empty disables logging")
	fs.StringVar(&o.ServeToken, "serve-token", "",
		"with -serve: shared secret required (Authorization: Bearer or X-Wantraffic-Token header) on mutating endpoints like POST /quitquitquit")
	fs.DurationVar(&o.HistoryInterval, "history-interval", time.Second,
		"with -serve: self-scrape the registry into /metrics/history this often (0 disables the ticker)")
	fs.IntVar(&o.HistoryCap, "history-cap", 0,
		"with -serve: per-series sample capacity of /metrics/history (0 = default 512)")
	return o
}

// ObsSession is the live observability state of one tool invocation.
// Tracer and Metrics are nil unless an export, the progress ticker or
// the monitor server needs them, so instrumented code paths stay
// no-ops by default (nil-receiver semantics in internal/obs). Logger
// is always non-nil — a discard logger when -log is off — so callers
// pass it without guarding. Bus and Server are non-nil only under
// -serve.
type ObsSession struct {
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	Bus     *obs.Bus
	Logger  *slog.Logger
	Server  *monitor.Server
	// Marks are the pipeline watermarks backed by Metrics (nil when
	// Metrics is nil; every method no-ops then). Stages a tool never
	// stamps never appear in the exposition.
	Marks *obs.Watermarks
	// History is the self-scraped /metrics/history ring; non-nil only
	// under -serve. Its scrape tick drives Marks.Refresh, so lag gauges
	// move only when the history records — never from a free-running
	// timer that would break /metrics byte-identity between reads.
	History *monitor.History

	flags        *ObsFlags
	stderr       io.Writer
	cpuFile      *os.File
	stopProgress func()
	closed       bool
}

// Start begins the session: allocates the tracer/registry the flags
// call for, starts CPU profiling, the progress ticker and the monitor
// server. Callers must Close the session; see Close for the
// deferred-plus-explicit idiom.
func (o *ObsFlags) Start(stderr io.Writer) (*ObsSession, error) {
	if o.ServeLinger != 0 && o.Serve == "" {
		return nil, Usagef("-serve-linger requires -serve")
	}
	if o.ServeToken != "" && o.Serve == "" {
		return nil, Usagef("-serve-token requires -serve")
	}
	if o.ServeLinger < 0 {
		return nil, Usagef("-serve-linger must be >= 0")
	}
	if o.HistoryInterval < 0 {
		return nil, Usagef("-history-interval must be >= 0")
	}
	if o.HistoryCap < 0 {
		return nil, Usagef("-history-cap must be >= 0")
	}
	switch o.LogFormat {
	case "", "json", "text":
	default:
		return nil, Usagef("-log must be json, text or empty, got %q", o.LogFormat)
	}
	s := &ObsSession{flags: o, stderr: stderr}
	if o.TraceOut != "" || o.Serve != "" {
		s.Tracer = obs.NewTracer()
	}
	if o.MetricsOut != "" || o.Progress || o.Serve != "" {
		s.Metrics = obs.NewRegistry()
	}
	switch o.LogFormat {
	case "json":
		s.Logger = obs.NewLogger(stderr, nil, slog.LevelInfo)
	case "text":
		s.Logger = slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	default:
		s.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	s.Marks = obs.NewWatermarks(s.Metrics, nil)
	if o.Serve != "" {
		s.Bus = obs.NewBus()
		s.Tracer.PublishTo(s.Bus)
		s.History = monitor.NewHistory(monitor.HistoryOptions{
			Registry: s.Metrics,
			Cap:      o.HistoryCap,
			Refresh:  s.Marks.Refresh,
			Bus:      s.Bus,
		}).Start(o.HistoryInterval)
		srv, err := monitor.Start(o.Serve, monitor.Options{
			Tool:     o.tool,
			Registry: s.Metrics,
			Bus:      s.Bus,
			Token:    o.ServeToken,
			History:  s.History,
		})
		if err != nil {
			s.History.Close()
			return nil, err
		}
		s.Server = srv
		// Parseable single line: scripts attach by scraping the URL.
		fmt.Fprintf(stderr, "monitor: serving on %s\n", srv.URL())
		s.Logger.Info("monitor serving", "url", srv.URL(), "tool", o.tool)
	}
	if o.CPUProfile != "" {
		f, err := os.Create(o.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		s.cpuFile = f
	}
	if o.Progress {
		s.stopProgress = obs.StartProgress(stderr, s.Metrics, 2*time.Second)
	}
	return s, nil
}

// Close stops profiling, writes the requested artifacts (metrics
// JSON, Chrome trace, heap profile), honors the -serve-linger window
// while the monitor keeps serving the final state, and then shuts the
// monitor down. It is idempotent: tools defer it for cleanup on error
// paths and also call it explicitly on the success path to surface
// write errors.
func (s *ObsSession) Close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	if s.stopProgress != nil {
		s.stopProgress()
	}
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(s.cpuFile.Close())
	}
	if s.flags.MemProfile != "" {
		f, err := os.Create(s.flags.MemProfile)
		if err != nil {
			keep(err)
		} else {
			runtime.GC() // materialize up-to-date heap statistics
			keep(pprof.WriteHeapProfile(f))
			keep(f.Close())
		}
	}
	if s.flags.MetricsOut != "" {
		raw, err := s.Metrics.JSON()
		if err != nil {
			keep(err)
		} else {
			keep(os.WriteFile(s.flags.MetricsOut, raw, 0o644))
		}
	}
	if s.flags.TraceOut != "" {
		raw, err := s.Tracer.ChromeTrace()
		if err != nil {
			keep(err)
		} else {
			keep(os.WriteFile(s.flags.TraceOut, raw, 0o644))
		}
	}
	if s.Server != nil {
		// Artifacts are already written, so /metrics serves the run's
		// final state for the whole linger window.
		if s.flags.ServeLinger > 0 {
			fmt.Fprintf(s.stderr, "monitor: work done, serving for %s more (POST %s/quitquitquit to stop)\n",
				s.flags.ServeLinger, s.Server.URL())
			t := time.NewTimer(s.flags.ServeLinger)
			select {
			case <-t.C:
			case <-s.Server.QuitRequested():
			}
			t.Stop()
		}
		keep(s.Server.Close())
	}
	// After the linger window so /metrics/history stays live (and its
	// scrape tick keeps lag gauges honest) while clients look around.
	s.History.Close()
	return first
}
