// The dash and snapshot subcommands: a polling terminal dashboard
// over GET /metrics/history plus the /events stream, and an offline
// diagnosis bundle. Frames are appended (never redrawn in place), so
// a dash transcript pasted into a CI log or an issue reads top to
// bottom like a flight recorder.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"time"

	"wantraffic/internal/cli"
	"wantraffic/internal/obs"
)

// stageOrder is the pipeline order stages are rendered in; stages not
// listed (future additions) sort after these, alphabetically.
var stageOrder = map[string]int{
	obs.StageLoadEmit:    0,
	obs.StageIngest:      1,
	obs.StageShardDrain:  2,
	obs.StageWindowClose: 3,
	obs.StageCoordFold:   4,
}

const (
	watermarkSuffix = ".watermark_seconds"
	lagSuffix       = ".lag_seconds"
	freshnessSuffix = ".freshness_seconds"
	sparkWidth      = 24
)

func runDash(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("wanmon dash", stderr)
	interval := fs.Duration("interval", time.Second, "poll /metrics/history and render a frame this often")
	watch := fs.Duration("watch", 0, "stop after this long (0: run until interrupted or the monitor goes away)")
	sloLag := fs.Duration("slo-lag", 0, "freshness SLO: exit 3 if any watermark stops advancing for longer than this inside the watch")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("usage: wanmon dash [flags] <addr>")
	}
	if *interval <= 0 {
		return cli.Usagef("-interval must be > 0, got %s", *interval)
	}
	if *watch < 0 {
		return cli.Usagef("-watch must be >= 0, got %s", *watch)
	}
	if *sloLag < 0 {
		return cli.Usagef("-slo-lag must be >= 0, got %s", *sloLag)
	}
	base := cli.BaseURL(fs.Arg(0))

	poll := &http.Client{Timeout: 10 * time.Second}
	tool, err := fetchTool(poll, base)
	if err != nil {
		return fmt.Errorf("no monitor at %s (is the tool running with -serve?): %w", base, err)
	}
	fmt.Fprintf(stdout, "dash %s (%s), polling every %s\n", base, tool, *interval)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The event tally rides on its own connection: SSE must not carry
	// the poll client's timeout. A dead stream only mutes the tally —
	// the dash itself lives and dies with the history endpoint.
	tally := &dashTally{verdicts: map[string]int{}}
	sse, sseCancel := context.WithCancel(context.Background())
	defer sseCancel()
	go tallyEvents(sse, base, tally)

	var deadline <-chan time.Time
	if *watch > 0 {
		t := time.NewTimer(*watch)
		defer t.Stop()
		deadline = t.C
	}
	tick := time.NewTicker(*interval)
	defer tick.Stop()

	breaches := map[string]float64{} // series → worst observed staleness
	sawWatermark := false
	frame, reason := 0, "interrupted"
	for done := false; !done; {
		h, err := fetchHistory(poll, base)
		if err != nil {
			if frame == 0 {
				return fmt.Errorf("GET %s/metrics/history: %w", base, err)
			}
			// The monitored run ended and took the monitor with it —
			// that is how an un-watched dash normally finishes.
			reason = "monitor gone"
			break
		}
		frame++
		if renderDashFrame(stdout, frame, h, tally, sloLag.Seconds(), breaches) {
			sawWatermark = true
		}
		select {
		case <-ctx.Done():
			done = true
		case <-deadline:
			reason, done = "watch elapsed", true
		case <-tick.C:
		}
	}

	fmt.Fprintf(stdout, "dash ended (%s): %d frame(s)\n", reason, frame)
	if *sloLag == 0 {
		return nil
	}
	if !sawWatermark {
		return cli.Partialf("freshness SLO unverifiable: no watermark series appeared in %d frame(s)", frame)
	}
	if len(breaches) > 0 {
		names := make([]string, 0, len(breaches))
		for n := range breaches {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, n := range names {
			parts[i] = fmt.Sprintf("%s stale %.1fs", n, breaches[n])
		}
		return cli.Partialf("freshness SLO %s breached: %s", *sloLag, strings.Join(parts, ", "))
	}
	return nil
}

// dashTally accumulates the /events stream for the frame footer.
type dashTally struct {
	mu       sync.Mutex
	verdicts map[string]int
	changes  int
	reshapes int
}

// tallyEvents attaches to /events and counts verdicts, change-points
// and reshapes, reattaching with a fixed pause while the dash runs.
func tallyEvents(ctx context.Context, base string, st *dashTally) {
	client := &http.Client{} // no timeout: SSE streams indefinitely
	for ctx.Err() == nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
		if err != nil {
			return
		}
		resp, err := client.Do(req)
		if err == nil && resp.StatusCode == http.StatusOK {
			readEvents(resp.Body, func(ev obs.StreamEvent) bool {
				st.mu.Lock()
				switch ev.Kind {
				case obs.EventVerdict:
					st.verdicts[ev.Name]++
				case obs.EventChangePoint:
					st.changes++
				case obs.EventLoadReshape:
					st.reshapes++
				}
				st.mu.Unlock()
				return true
			})
		}
		if resp != nil {
			resp.Body.Close()
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Second):
		}
	}
}

// historySeries mirrors one series of the GET /metrics/history body.
type historySeries struct {
	Name    string       `json:"name"`
	Samples [][2]float64 `json:"samples"`
}

// historyDump mirrors the GET /metrics/history response body.
type historyDump struct {
	Scrapes int64             `json:"scrapes"`
	Cap     int               `json:"cap"`
	Series  []historySeries   `json:"series"`
	Events  []obs.StreamEvent `json:"events"`
}

func fetchHistory(client *http.Client, base string) (*historyDump, error) {
	resp, err := client.Get(base + "/metrics/history")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var h historyDump
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// fetchTool reads the tool name off /healthz.
func fetchTool(client *http.Client, base string) (string, error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var hz struct {
		Tool string `json:"tool"`
	}
	raw, _ := io.ReadAll(resp.Body)
	if json.Unmarshal(raw, &hz) == nil && hz.Tool != "" {
		return hz.Tool, nil
	}
	return "unknown", nil
}

// renderDashFrame prints one appended frame and records SLO breaches
// into breaches (when slo > 0). It reports whether any watermark
// series was present.
func renderDashFrame(w io.Writer, frame int, h *historyDump, tally *dashTally, slo float64, breaches map[string]float64) bool {
	byName := make(map[string]historySeries, len(h.Series))
	for _, s := range h.Series {
		byName[s.Name] = s
	}

	type stageRow struct{ name string }
	var stages []stageRow
	var pipelines []string
	saw := false
	for _, s := range h.Series {
		if !strings.HasSuffix(s.Name, watermarkSuffix) {
			continue
		}
		saw = true
		name := strings.TrimSuffix(s.Name, watermarkSuffix)
		if strings.HasPrefix(name, "pipeline.") {
			pipelines = append(pipelines, strings.TrimPrefix(name, "pipeline."))
		} else {
			stages = append(stages, stageRow{name})
		}
	}
	sort.Slice(stages, func(i, j int) bool {
		oi, iOK := stageOrder[stages[i].name]
		oj, jOK := stageOrder[stages[j].name]
		switch {
		case iOK && jOK:
			return oi < oj
		case iOK != jOK:
			return iOK
		default:
			return stages[i].name < stages[j].name
		}
	})
	sort.Strings(pipelines)

	fmt.Fprintf(w, "── frame %-3d scrapes=%d series=%d\n", frame, h.Scrapes, len(h.Series))
	minMark, maxMark, marked := 0.0, 0.0, false
	for _, st := range stages {
		wm := byName[st.name+watermarkSuffix]
		mark, _ := lastSample(wm.Samples)
		lag := byName[st.name+lagSuffix]
		lagV, _ := lastSample(lag.Samples)
		stale := staleness(wm.Samples)
		if slo > 0 && stale > slo {
			if stale > breaches[wm.Name] {
				breaches[wm.Name] = stale
			}
		}
		if !marked || mark < minMark {
			minMark = mark
		}
		if !marked || mark > maxMark {
			maxMark = mark
		}
		marked = true
		fmt.Fprintf(w, "   %-13s mark %10.2fs  lag %8.2fs  %s\n",
			st.name, mark, lagV, sparkline(lag.Samples, sparkWidth))
	}
	if marked {
		line := fmt.Sprintf("   skew %.2fs", maxMark-minMark)
		for _, id := range pipelines {
			e2e, _ := lastSample(byName["pipeline."+id+watermarkSuffix].Samples)
			fresh, _ := lastSample(byName["pipeline."+id+freshnessSuffix].Samples)
			line += fmt.Sprintf("   pipeline %s mark %.2fs fresh %.2fs", id, e2e, fresh)
			if stale := staleness(byName["pipeline."+id+watermarkSuffix].Samples); slo > 0 && stale > slo {
				name := "pipeline." + id + watermarkSuffix
				if stale > breaches[name] {
					breaches[name] = stale
				}
			}
		}
		fmt.Fprintln(w, line)
	} else {
		fmt.Fprintln(w, "   (no watermark series yet)")
	}

	tally.mu.Lock()
	verdictNames := make([]string, 0, len(tally.verdicts))
	for v := range tally.verdicts {
		verdictNames = append(verdictNames, v)
	}
	sort.Strings(verdictNames)
	parts := make([]string, 0, len(verdictNames))
	for _, v := range verdictNames {
		parts = append(parts, fmt.Sprintf("%d %s", tally.verdicts[v], v))
	}
	changes, reshapes := tally.changes, tally.reshapes
	tally.mu.Unlock()
	footer := "   events:"
	if len(parts) > 0 {
		footer += " verdicts " + strings.Join(parts, ", ") + " ·"
	}
	footer += fmt.Sprintf(" changepoints %d · reshapes %d", changes, reshapes)
	fmt.Fprintln(w, footer)
	if slo > 0 {
		if len(breaches) > 0 {
			fmt.Fprintf(w, "   slo: BREACHED (%d series beyond %gs)\n", len(breaches), slo)
		} else {
			fmt.Fprintf(w, "   slo: ok (limit %gs)\n", slo)
		}
	}
	return saw
}

// lastSample returns the newest sample's value (ok=false when empty).
func lastSample(samples [][2]float64) (v float64, ok bool) {
	if len(samples) == 0 {
		return 0, false
	}
	return samples[len(samples)-1][1], true
}

// staleness is how long a series' value has been sitting still: the
// wall-clock span of the trailing constant run of samples. A series
// with fewer than two samples has no evidence of a stall yet.
func staleness(samples [][2]float64) float64 {
	n := len(samples)
	if n < 2 {
		return 0
	}
	last := samples[n-1][1]
	j := n - 1
	for j > 0 && samples[j-1][1] == last {
		j--
	}
	return samples[n-1][0] - samples[j][0]
}

// sparkline renders the last width samples' values as eight-level
// bars scaled to the window's own min..max (a flat window is all
// baseline bars).
func sparkline(samples [][2]float64, width int) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	if len(samples) > width {
		samples = samples[len(samples)-width:]
	}
	if len(samples) == 0 {
		return ""
	}
	lo, hi := samples[0][1], samples[0][1]
	for _, s := range samples {
		if s[1] < lo {
			lo = s[1]
		}
		if s[1] > hi {
			hi = s[1]
		}
	}
	out := make([]rune, len(samples))
	for i, s := range samples {
		lvl := 0
		if hi > lo {
			lvl = int((s[1] - lo) / (hi - lo) * float64(len(levels)-1))
		}
		out[i] = levels[lvl]
	}
	return string(out)
}

// snapshotReport is the wanmon snapshot output: everything needed to
// diagnose a run after its monitor is gone, in one file.
type snapshotReport struct {
	Kind    string          `json:"kind"` // "wantraffic-snapshot/v1"
	Base    string          `json:"base"`
	Health  json.RawMessage `json:"health"`
	Metrics string          `json:"metrics"`
	History json.RawMessage `json:"history,omitempty"`
}

func runSnapshot(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("wanmon snapshot", stderr)
	out := fs.String("o", "", "write the report to this file (default stdout)")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("usage: wanmon snapshot [-o report.json] <addr>")
	}
	base := cli.BaseURL(fs.Arg(0))
	client := &http.Client{Timeout: 30 * time.Second}

	get := func(path string) ([]byte, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s%s: HTTP %d", base, path, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}

	health, err := get("/healthz")
	if err != nil {
		return fmt.Errorf("no monitor at %s (is the tool running with -serve?): %w", base, err)
	}
	metrics, err := get("/metrics")
	if err != nil {
		return err
	}
	rep := snapshotReport{
		Kind: "wantraffic-snapshot/v1", Base: base,
		Health: json.RawMessage(health), Metrics: string(metrics),
	}
	// History is best-effort: a monitor predating /metrics/history
	// still snapshots cleanly, just without the sample rings.
	if hist, err := get("/metrics/history"); err == nil {
		rep.History = json.RawMessage(hist)
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "snapshot: wrote %s (%d bytes)\n", *out, len(raw))
		return nil
	}
	_, err = stdout.Write(raw)
	return err
}
