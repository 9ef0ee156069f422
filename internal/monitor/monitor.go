// Package monitor is the live telemetry server: an embeddable
// net/http server exposing a running tool's observability state while
// it executes, instead of only as files written after exit.
//
// Endpoints (contract in DESIGN.md §11):
//
//	/metrics         OpenMetrics text exposition of the obs.Registry
//	/metrics/history JSON ring of self-scraped (t, value) samples
//	/healthz         JSON liveness: tool, status, uptime
//	/events          Server-Sent Events stream of obs.Bus StreamEvents
//	/debug/pprof/*   net/http/pprof profiling handlers
//	/quitquitquit    POST: ask the host tool to stop lingering
//
// A tool mounts its own routes beside these with Server.Handle, and
// puts the mutating ones behind Server.Guard, the one token check.
//
// The monitor's own handlers observe, never participate: they only
// read the registry and subscribe to the bus, so serving cannot change
// a run's artifact bytes — the same rule the rest of internal/obs
// follows.
// Paxson & Floyd's point that burstiness is invisible unless the
// process is observed at the right timescale (PAPER.md §VII) is the
// motivation: a long corpus or ingest run should be watchable at
// second granularity, not only post-hoc.
package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"wantraffic/internal/obs"
)

// Options configures a Server. All fields are optional: a Server with
// a nil Registry serves an empty exposition, one with a nil Bus serves
// an event stream that only heartbeats.
type Options struct {
	// Tool names the host process in /healthz.
	Tool string
	// Registry backs /metrics.
	Registry *obs.Registry
	// Bus backs /events.
	Bus *obs.Bus
	// Logger receives request-level diagnostics (nil: silent).
	Logger *slog.Logger
	// EventBuffer is the per-subscriber SSE buffer (default 256).
	EventBuffer int
	// Heartbeat is the SSE keep-alive comment interval (default 15s).
	Heartbeat time.Duration
	// Token, when non-empty, guards the mutating endpoints: POST
	// /quitquitquit and every route mounted through Guard require the
	// shared secret in an "Authorization: Bearer <token>" or
	// "X-Wantraffic-Token" header. Unauthenticated requests get 403
	// and monitor.auth.denied increments. Read-only endpoints stay
	// open.
	Token string
	// History, when non-nil, serves the in-process metrics history at
	// GET /metrics/history. The host owns its scrape schedule and
	// lifecycle; the server only exposes it.
	History *History
}

// Server is a live telemetry endpoint bound to one listener. Start it
// with Start, stop it with Close.
type Server struct {
	opts  Options
	ln    net.Listener
	mux   *http.ServeMux
	srv   *http.Server
	start time.Time

	quitOnce sync.Once
	quit     chan struct{} // closed by /quitquitquit
	done     chan struct{} // closed when Serve returns
	closed   chan struct{} // closed by Close; unblocks SSE writers
}

// Start listens on addr (":0" selects an ephemeral port) and serves
// in a background goroutine until Close.
func Start(addr string, opts Options) (*Server, error) {
	if opts.EventBuffer <= 0 {
		opts.EventBuffer = 256
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = 15 * time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: listen %s: %w", addr, err)
	}
	s := &Server{
		opts:   opts,
		ln:     ln,
		start:  time.Now(),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		closed: make(chan struct{}),
	}
	mux := http.NewServeMux()
	s.mux = mux
	mux.HandleFunc("/metrics", s.handleMetrics)
	if opts.History != nil {
		mux.HandleFunc("/metrics/history", opts.History.handleHistory)
	}
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/quitquitquit", s.handleQuit)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns on Close; error is expected then
	}()
	if opts.Logger != nil {
		opts.Logger.Info("monitor serving", "addr", s.Addr(), "tool", opts.Tool)
	}
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Handle mounts a tool's own route on the running server, next to the
// monitor's endpoints; wrap a mutating route in Guard. Like
// http.ServeMux.Handle, it panics if the path is already mounted.
func (s *Server) Handle(path string, h http.Handler) { s.mux.Handle(path, h) }

// Guard wraps a mutating route in the server's token check (see
// Options.Token): a request without the token gets 403 and never
// reaches h.
func (s *Server) Guard(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.authorize(w, r) {
			h.ServeHTTP(w, r)
		}
	})
}

// QuitRequested is closed when a client POSTs /quitquitquit — the
// host tool uses it to cut a -serve-linger wait short.
func (s *Server) QuitRequested() <-chan struct{} { return s.quit }

// Close shuts the server down: the listener closes, in-flight SSE
// streams terminate, and the serve goroutine exits.
func (s *Server) Close() error {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		err = s.srv.Close()
	}
	<-s.done
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	w.Write(s.opts.Registry.OpenMetrics())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	resp := map[string]any{
		"status":    "ok",
		"tool":      s.opts.Tool,
		"uptime_ms": float64(time.Since(s.start)) / float64(time.Millisecond),
	}
	raw, _ := json.Marshal(resp)
	w.Write(append(raw, '\n'))
}

func (s *Server) handleQuit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorize(w, r) {
		return
	}
	s.quitOnce.Do(func() { close(s.quit) })
	fmt.Fprintln(w, "quitting")
}

// authorize enforces the server's token on a mutating request: it
// passes when no token is configured or the request carries it, and
// otherwise writes 403, increments monitor.auth.denied, and returns
// false.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) bool {
	tok := s.opts.Token
	if tok == "" || r.Header.Get("X-Wantraffic-Token") == tok || r.Header.Get("Authorization") == "Bearer "+tok {
		return true
	}
	s.opts.Registry.Counter("monitor.auth.denied").Inc()
	if s.opts.Logger != nil {
		s.opts.Logger.Warn("unauthorized mutating request", "path", r.URL.Path, "remote", r.RemoteAddr)
	}
	http.Error(w, "forbidden: missing or wrong -serve-token", http.StatusForbidden)
	return false
}

// handleEvents streams bus events as Server-Sent Events:
//
//	id: <seq>
//	event: <kind>
//	data: {"seq":..,"t_ms":..,"kind":..,"name":..,"attrs":{..}}
//
// Slow clients drop events (bounded subscriber buffer) rather than
// stall the publisher; idle streams carry ": ping" comments.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": stream open tool=%s\n\n", s.opts.Tool)
	fl.Flush()

	ch, cancel := s.opts.Bus.Subscribe(s.opts.EventBuffer)
	defer cancel()
	heartbeat := time.NewTicker(s.opts.Heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-ch:
			if !ok { // nil bus: closed subscription — heartbeat only
				ch = nil
				continue
			}
			raw, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, raw)
			fl.Flush()
		case <-heartbeat.C:
			fmt.Fprint(w, ": ping\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.closed:
			return
		}
	}
}
