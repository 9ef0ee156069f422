package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wantraffic/internal/datasets"
	"wantraffic/internal/load"
	"wantraffic/internal/monitor"
	"wantraffic/internal/trace"
)

// twoRegimeJSON is steady Poisson for 600 trace seconds, then a
// scheduled reshape to a 2x-rate bursty pattern.
const twoRegimeJSON = `{
	"name": "two-regime",
	"kind": "conn",
	"horizon": 1200,
	"sources": [
		{"name": "tel", "proto": "TELNET", "pattern": "poisson", "users": 64, "rate": 30}
	],
	"phases": [
		{"at": 600, "pattern": "bursty", "scale": 2}
	]
}`

var followLine = regexp.MustCompile(`^t=(\S+)\s+w=\d+\s+(\S+)`)

// TestFollowDetectsScheduledReshape replays wanload's two-regime
// scenario (seed 42) through the observatory: the verdicts read
// poisson before the reshape at t = 600 and bursty after it, and a
// change-point lands within 300 trace seconds of it. Pacing never
// changes the events (TestFollowDilationInvariance), so the trace is
// written and followed at full speed.
func TestFollowDetectsScheduledReshape(t *testing.T) {
	sc, err := load.ParseScenario(strings.NewReader(twoRegimeJSON))
	if err != nil {
		t.Fatal(err)
	}
	d, err := load.New(sc, load.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var tr bytes.Buffer
	if _, err := d.Run(context.Background(), &tr); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "two-regime.conn")
	if err := os.WriteFile(p, tr.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if err := run([]string{"-follow", "-obs-window", "10", "-obs-keep", "24", "-obs-warmup", "8", p}, &out, &errw); err != nil {
		t.Fatalf("follow: %v\n%s", err, errw.String())
	}
	var poissonBefore, burstyAfter bool
	var changes []float64
	for _, line := range strings.Split(out.String(), "\n") {
		m := followLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		at, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		switch {
		case m[2] == "poisson" && at <= 600:
			poissonBefore = true
		case m[2] == "bursty" && at > 600:
			burstyAfter = true
		case m[2] == "CHANGE":
			changes = append(changes, at)
		}
	}
	if !poissonBefore || !burstyAfter {
		t.Errorf("poisson before the reshape: %v, bursty after: %v\n%s", poissonBefore, burstyAfter, out.String())
	}
	t.Logf("change-points at %v", changes)
	detected := false
	for _, at := range changes {
		detected = detected || (at > 600 && at <= 900)
	}
	if !detected {
		t.Errorf("reshape at t=600 not detected within 300 s: change-points at %v", changes)
	}
}

// syncBuffer lets the test read run's output while run still writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitUntil polls b until it holds every want, failing after 30 s.
func waitUntil(t *testing.T, b *syncBuffer, want ...string) string {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		s, missing := b.String(), false
		for _, w := range want {
			missing = missing || !strings.Contains(s, w)
		}
		if !missing {
			return s
		}
	}
	t.Fatalf("output never held %q:\n%s", want, b.String())
	return ""
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s (%v)", url, resp.Status, err)
	}
	return body
}

// TestFollowServesLiveTelemetry follows a dilated day of the UK trace
// under -serve and probes the monitor from outside the run: a verdict
// reaches /events while the replay runs, and once the trailer is out
// the settled /metrics is stable, valid and carries the observatory's
// gauges until POST /quitquitquit ends the linger.
func TestFollowServesLiveTelemetry(t *testing.T) {
	var tr bytes.Buffer
	if err := trace.WriteConnTrace(&tr, datasets.Conn("UK"), false); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "uk.conn")
	if err := os.WriteFile(p, tr.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr := &syncBuffer{}, &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		// A day of trace in about 2 wall seconds.
		done <- run([]string{"-follow", "-dilate", "43200", "-obs-window", "300",
			"-serve", "127.0.0.1:0", "-serve-linger", "60s", "-history-interval", "0", p}, stdout, stderr)
	}()
	banner := waitUntil(t, stderr, "monitor: serving on ")
	url := strings.Fields(banner[strings.Index(banner, "monitor: serving on ")+len("monitor: serving on "):])[0]
	released := false
	defer func() {
		if !released {
			if resp, err := http.Post(url+"/quitquitquit", "", nil); err == nil {
				resp.Body.Close()
			}
			<-done
		}
	}()

	// Subscriptions are live-only: attach while the replay runs.
	resp, err := http.Get(url + "/events")
	if err != nil {
		t.Fatal(err)
	}
	verdict := false
	for sc := bufio.NewScanner(resp.Body); !verdict && sc.Scan(); {
		verdict = sc.Text() == "event: verdict"
	}
	resp.Body.Close()
	if !verdict {
		t.Error("no verdict event on /events")
	}

	waitUntil(t, stdout, "followed 9125 records", "last verdict")
	m1, m2 := getBody(t, url+"/metrics"), getBody(t, url+"/metrics")
	if !bytes.Equal(m1, m2) {
		t.Errorf("settled /metrics differs across reads:\n%s\n---\n%s", m1, m2)
	}
	if err := monitor.ValidateOpenMetrics(m1); err != nil {
		t.Errorf("/metrics invalid: %v", err)
	}
	for _, g := range []string{"observe_windows", "observe_rate", "observe_verdict", "observe_dispersion"} {
		if !bytes.Contains(m1, []byte("\n"+g+" ")) {
			t.Errorf("/metrics lacks %s:\n%s", g, m1)
		}
	}

	resp, err = http.Post(url+"/quitquitquit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	released = true
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after quit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("POST /quitquitquit did not release the linger")
	}
}
