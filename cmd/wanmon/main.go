// Command wanmon is the operator console for the live telemetry the
// other tools expose with -serve (internal/monitor): it attaches to a
// running tool, renders its pipeline dashboard, bundles snapshots and
// validates expositions.
//
// Usage:
//
//	wanmon watch :8077                  attach to a running tool and
//	                                    render its /events stream live
//	wanmon watch -max 50 127.0.0.1:8077 detach after 50 events
//	wanmon watch -reconnect 5 :8077     survive monitor restarts:
//	                                    reattach under capped backoff
//	wanmon dash :8077                   live pipeline dashboard: per-stage
//	                                    watermarks, lag sparklines, SLO burn
//	wanmon dash -watch 30s -slo-lag 5s :8077     CI freshness gate
//	wanmon snapshot -o report.json :8077         offline diagnosis bundle
//	wanmon check metrics.txt            validate an OpenMetrics file
//	wanmon check http://127.0.0.1:8077/metrics   ...or a live endpoint
//
// watch renders one line per event: job-state transitions from the
// experiment engine (running/retry/ok/error/timeout/canceled), span
// starts and ends mirrored from the tracer, live observatory verdicts
// and change-point alarms from `wanstream -follow`, and a summary
// when the stream ends. With -reconnect N a dropped stream does not
// end the watch: it reattaches under capped exponential backoff
// (-reconnect-wait sets the base) and gives up only after N
// consecutive attempts that rendered no events, so a monitored tool
// can restart under the watch.
//
// dash polls GET /metrics/history every -interval and renders one
// appended frame per poll: each pipeline stage's event-time watermark,
// its lag behind the wall clock with a sparkline of the recent
// history, the watermark skew across stages, per-pipeline end-to-end
// freshness, and a running tally of verdicts, change-points and
// reshapes from the /events stream. With -slo-lag the dash is a
// freshness gate: a watermark that stops advancing for longer than
// the SLO anywhere inside the -watch window is a breach, and the dash
// exits 3, the internal/cli partial-success code, so CI can gate on
// pipeline liveness.
//
// snapshot bundles /healthz, the /metrics exposition and the full
// /metrics/history export (samples plus recent events) into one
// self-contained JSON report for offline diagnosis of a run that has
// since ended.
//
// Exit codes follow the internal/cli contract: 0 success, 1 hard
// failure (endpoint unreachable, invalid exposition), 2 usage error,
// 3 partial success (dash found an SLO breach — the CI gate).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"wantraffic/internal/cli"
	"wantraffic/internal/monitor"
	"wantraffic/internal/obs"
)

func main() {
	os.Exit(cli.Main("wanmon", run))
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return cli.Usagef("usage: wanmon <watch|dash|snapshot|check> [flags] ...")
	}
	switch args[0] {
	case "watch":
		return runWatch(args[1:], stdout, stderr)
	case "dash":
		return runDash(args[1:], stdout, stderr)
	case "snapshot":
		return runSnapshot(args[1:], stdout, stderr)
	case "check":
		return runCheck(args[1:], stdout, stderr)
	default:
		return cli.Usagef("unknown subcommand %q (want watch, dash, snapshot or check)", args[0])
	}
}

func runWatch(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("wanmon watch", stderr)
	max := fs.Int("max", 0, "detach after this many events, counted across reconnects (0: until the stream ends)")
	timeout := fs.Duration("timeout", 0, "give up after this long (0: no limit)")
	quiet := fs.Bool("quiet", false, "suppress per-span lines; show only job states and the summary")
	reconnect := fs.Int("reconnect", 0, "reattach when the stream drops, giving up after this many consecutive fruitless attempts (0: detach when the stream ends)")
	reconnectWait := fs.Duration("reconnect-wait", 500*time.Millisecond, "base backoff before a reattach (doubles per consecutive failure, capped at 10s)")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("usage: wanmon watch [flags] <addr>")
	}
	if *reconnect < 0 {
		return cli.Usagef("-reconnect must be >= 0, got %d", *reconnect)
	}
	if *reconnectWait <= 0 {
		return cli.Usagef("-reconnect-wait must be > 0, got %s", *reconnectWait)
	}
	base := cli.BaseURL(fs.Arg(0))

	client := &http.Client{}
	if *timeout > 0 {
		client.Timeout = *timeout
	}

	// /healthz first: fail fast with a clear message when nothing is
	// serving, and learn the tool name for the banner.
	tool, err := fetchTool(client, base)
	if err != nil {
		return fmt.Errorf("no monitor at %s (is the tool running with -serve?): %w", base, err)
	}
	fmt.Fprintf(stdout, "watching %s (%s)\n", base, tool)

	// The attach loop. With -reconnect 0 one attach is everything: a
	// dropped stream ends the watch, the original behavior. Otherwise
	// the watch survives server restarts: it reattaches under capped
	// exponential backoff, and gives up only after -reconnect
	// consecutive attempts that yielded no events — an attempt that
	// renders at least one event proves the monitor is alive and
	// resets the allowance.
	st := watchState{jobs: map[string]string{}, terminal: map[string]int{}, verdicts: map[string]int{}}
	failures := 0
	for {
		n, done, err := streamOnce(client, base, &st, stdout, *max, *quiet)
		if done {
			summarize(&st, stdout)
			return nil
		}
		if *reconnect == 0 {
			summarize(&st, stdout)
			if err != nil {
				return fmt.Errorf("event stream: %w", err)
			}
			return nil
		}
		if n > 0 {
			failures = 0
		} else {
			failures++
		}
		if failures > *reconnect {
			summarize(&st, stdout)
			if err == nil {
				err = fmt.Errorf("stream ended with no events")
			}
			return fmt.Errorf("event stream down after %d consecutive reattach attempt(s): %w", *reconnect, err)
		}
		wait := backoffWait(*reconnectWait, failures)
		fmt.Fprintf(stdout, "stream dropped; reattaching in %s\n", wait)
		time.Sleep(wait)
	}
}

// streamOnce attaches to /events once and renders until the stream
// ends, the -max budget is spent (done=true), or a read error. It
// reports how many events this attachment rendered so the reattach
// loop can distinguish a live-but-restarting monitor from a dead one.
func streamOnce(client *http.Client, base string, st *watchState, w io.Writer, max int, quiet bool) (n int, done bool, err error) {
	resp, err := client.Get(base + "/events")
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false, fmt.Errorf("attach %s/events: HTTP %d", base, resp.StatusCode)
	}
	before := st.events
	done, err = renderEvents(resp.Body, st, w, max, quiet)
	return st.events - before, done, err
}

// backoffWait is the capped exponential reattach backoff: base
// doubled per consecutive failure beyond the first.
func backoffWait(base time.Duration, failures int) time.Duration {
	const ceiling = 10 * time.Second
	d := base
	for i := 1; i < failures; i++ {
		d *= 2
		if d >= ceiling {
			return ceiling
		}
	}
	return d
}

// watchState tallies the stream for the detach summary. It persists
// across reconnects, so the summary covers the whole watch.
type watchState struct {
	events   int
	jobs     map[string]string // job ID → last state
	terminal map[string]int    // terminal state → count
	verdicts map[string]int    // observatory verdict → count
	changes  int               // change-point events seen
}

// renderEvents consumes one SSE stream, printing one line per event.
// done reports that the -max budget is spent; a nil error otherwise
// means the server ended the stream.
func renderEvents(r io.Reader, st *watchState, w io.Writer, max int, quiet bool) (done bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			var ev obs.StreamEvent
			if err := json.Unmarshal([]byte(data), &ev); err == nil {
				renderEvent(st, ev, w, quiet)
			}
			data = ""
			if max > 0 && st.events >= max {
				return true, nil
			}
		}
	}
	if err := sc.Err(); err != nil && !strings.Contains(err.Error(), "EOF") {
		// The server closing the stream mid-read is a normal drop;
		// anything else (timeout, reset) is an error the caller may
		// retry or surface.
		return false, err
	}
	return false, nil
}

func renderEvent(st *watchState, ev obs.StreamEvent, w io.Writer, quiet bool) {
	st.events++
	ts := fmt.Sprintf("%9.1fms", ev.TMS)
	switch ev.Kind {
	case obs.EventJobState:
		state := ev.Attrs["state"]
		st.jobs[ev.Name] = state
		switch state {
		case "running", "retry", "resumed":
		default:
			st.terminal[state]++
		}
		line := fmt.Sprintf("%s  job %-12s %s", ts, ev.Name, state)
		if a := ev.Attrs["attempt"]; a != "" && a != "1" {
			line += " (attempt " + a + ")"
		}
		fmt.Fprintln(w, line)
	case obs.EventSpanStart:
		if !quiet {
			fmt.Fprintf(w, "%s  span %-12s start\n", ts, ev.Name)
		}
	case obs.EventSpanEnd:
		if !quiet {
			fmt.Fprintf(w, "%s  span %-12s end (%s ms)\n", ts, ev.Name, ev.Attrs["dur_ms"])
		}
	case obs.EventVerdict:
		st.verdicts[ev.Name]++
		a := ev.Attrs
		fmt.Fprintf(w, "%s  verdict %-8s w=%-5s rate=%s/s disp=%s lag1=%s hurst=%s alpha=%s p95=%s\n",
			ts, ev.Name, a["window"], a["rate"], a["dispersion"], a["lag1"],
			a["hurst"], a["tail_alpha"], a["p95"])
	case obs.EventChangePoint:
		st.changes++
		a := ev.Attrs
		fmt.Fprintf(w, "%s  CHANGE %s: %s %s (%s from %s, score %s)\n",
			ts, ev.Name, a["signal"], a["direction"], a["value"], a["baseline"], a["score"])
	case obs.EventLoadReshape:
		a := ev.Attrs
		detail := ""
		if s := a["scale"]; s != "" {
			detail += " scale=" + s
		}
		if p := a["pattern"]; p != "" {
			detail += " pattern=" + p
		}
		src := a["source"]
		if src == "" {
			src = "all sources"
		}
		fmt.Fprintf(w, "%s  RESHAPE %s: %s (%s) at t=%s%s\n",
			ts, ev.Name, src, a["origin"], a["t"], detail)
	default:
		fmt.Fprintf(w, "%s  %s %s %v\n", ts, ev.Kind, ev.Name, ev.Attrs)
	}
}

func summarize(st *watchState, w io.Writer) {
	parts := []string{fmt.Sprintf("%d event(s)", st.events)}
	if len(st.jobs) > 0 {
		states := make([]string, 0, len(st.terminal))
		for s := range st.terminal {
			states = append(states, s)
		}
		sort.Strings(states)
		tallies := make([]string, 0, len(states))
		for _, s := range states {
			tallies = append(tallies, fmt.Sprintf("%d %s", st.terminal[s], s))
		}
		parts = append(parts, fmt.Sprintf("%d job(s): %s", len(st.jobs), strings.Join(tallies, ", ")))
	}
	if len(st.verdicts) > 0 {
		names := make([]string, 0, len(st.verdicts))
		for v := range st.verdicts {
			names = append(names, v)
		}
		sort.Strings(names)
		tallies := make([]string, 0, len(names))
		for _, v := range names {
			tallies = append(tallies, fmt.Sprintf("%d %s", st.verdicts[v], v))
		}
		parts = append(parts, "verdicts: "+strings.Join(tallies, ", "))
	}
	if st.changes > 0 {
		parts = append(parts, fmt.Sprintf("%d changepoint(s)", st.changes))
	}
	if len(parts) == 1 {
		parts[0] += ", no jobs observed"
	}
	fmt.Fprintf(w, "stream ended: %s\n", strings.Join(parts, ", "))
}

func runCheck(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("wanmon check", stderr)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("usage: wanmon check <file|url>")
	}
	src := fs.Arg(0)
	var data []byte
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		client := &http.Client{Timeout: 30 * time.Second}
		resp, err := client.Get(src)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: HTTP %d", src, resp.StatusCode)
		}
		if data, err = io.ReadAll(resp.Body); err != nil {
			return err
		}
	} else {
		var err error
		if data, err = os.ReadFile(src); err != nil {
			return err
		}
	}
	if err := monitor.ValidateOpenMetrics(data); err != nil {
		return err
	}
	fams := monitor.FamilyNames(data)
	fmt.Fprintf(stdout, "%s: valid OpenMetrics, %d metric families\n", src, len(fams))
	return nil
}
