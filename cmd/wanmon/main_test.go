package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wantraffic/internal/cli"
	"wantraffic/internal/monitor"
	"wantraffic/internal/obs"
)

func runTool(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return cli.ExitCode(err), stdout.String(), stderr.String()
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"watch"},
		{"check"},
		{"watch", "-reconnect", "-1", ":1"},
		{"watch", "-reconnect-wait", "0s", ":1"},
	}
	for _, args := range cases {
		if code, _, _ := runTool(t, args...); code != 2 {
			t.Errorf("wanmon %v: exit %d, want 2", args, code)
		}
	}
}

// TestWatchRendersLiveRun attaches a watch to a real monitor server
// while a bus replays an engine-shaped event sequence, checking the
// rendered lines and summary.
func TestWatchRendersLiveRun(t *testing.T) {
	bus := obs.NewBusClock(obs.StepClock(obs.TestEpoch, time.Millisecond))
	tracer := obs.NewTracerClock(obs.StepClock(obs.TestEpoch, time.Millisecond))
	tracer.PublishTo(bus)
	srv, err := monitor.Start("127.0.0.1:0", monitor.Options{Tool: "paperfig", Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	go func() {
		for i := 0; i < 100 && bus.Subscribers() == 0; i++ {
			time.Sleep(10 * time.Millisecond)
		}
		ctx := obs.WithTracer(context.Background(), tracer)
		_, sp := obs.StartSpan(ctx, "run")
		bus.Publish(obs.EventJobState, "fig2", map[string]string{"state": "running", "attempt": "1"})
		bus.Publish(obs.EventJobState, "fig2", map[string]string{"state": "ok", "attempt": "1"})
		bus.Publish(obs.EventJobState, "tab3", map[string]string{"state": "running", "attempt": "2"})
		bus.Publish(obs.EventJobState, "tab3", map[string]string{"state": "error", "attempt": "2"})
		sp.End()
	}()

	code, out, stderr := runTool(t, "watch", "-max", "6", srv.Addr())
	if code != 0 {
		t.Fatalf("watch exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"watching http://" + srv.Addr() + " (paperfig)",
		"span run          start",
		"job fig2         running",
		"job fig2         ok",
		"job tab3         running (attempt 2)",
		"job tab3         error (attempt 2)",
		"stream ended: 6 event(s), 2 job(s): 1 error, 1 ok",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("watch output missing %q:\n%s", want, out)
		}
	}
}

// TestWatchRendersLoadReshape: wanload's runtime reshape events get a
// dedicated RESHAPE line instead of the generic fallback.
func TestWatchRendersLoadReshape(t *testing.T) {
	bus := obs.NewBusClock(obs.StepClock(obs.TestEpoch, time.Millisecond))
	srv, err := monitor.Start("127.0.0.1:0", monitor.Options{Tool: "wanload", Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		waitSubs(bus)
		bus.Publish(obs.EventLoadReshape, "two-regime", map[string]string{
			"t": "900", "origin": "control", "source": "tel", "scale": "4",
		})
		bus.Publish(obs.EventLoadReshape, "two-regime", map[string]string{
			"t": "1200", "origin": "phase", "pattern": "bursty",
		})
	}()
	code, out, stderr := runTool(t, "watch", "-max", "2", srv.Addr())
	if code != 0 {
		t.Fatalf("watch exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"RESHAPE two-regime: tel (control) at t=900 scale=4",
		"RESHAPE two-regime: all sources (phase) at t=1200 pattern=bursty",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("watch output missing %q:\n%s", want, out)
		}
	}
}

// waitSubs blocks until the bus has at least one subscriber (the
// watch's /events attachment) or the deadline passes.
func waitSubs(bus *obs.Bus) {
	for i := 0; i < 400 && bus.Subscribers() == 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
}

func verdictAttrs(window string) map[string]string {
	return map[string]string{
		"window": window, "t_end": "35", "rate": "8.02", "dispersion": "0.97",
		"lag1": "0.02", "hurst": "0.51", "tail_alpha": "1.8", "p95": "2917",
	}
}

// TestWatchReconnectAcrossServerRestart is the resilience satellite:
// the monitor server is killed mid-watch and restarted on the same
// address, and a -reconnect watch must ride the gap out, render
// events from both incarnations, and summarize the whole.
func TestWatchReconnectAcrossServerRestart(t *testing.T) {
	bus1 := obs.NewBusClock(obs.StepClock(obs.TestEpoch, time.Millisecond))
	srv1, err := monitor.Start("127.0.0.1:0", monitor.Options{Tool: "wanstream", Bus: bus1})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()

	srv2ch := make(chan *monitor.Server, 1)
	go func() {
		// Phase 1: two verdicts, then kill the server under the watch.
		waitSubs(bus1)
		bus1.Publish(obs.EventVerdict, "poisson", verdictAttrs("6"))
		bus1.Publish(obs.EventVerdict, "poisson", verdictAttrs("7"))
		time.Sleep(150 * time.Millisecond) // let the SSE writer flush
		srv1.Close()

		// Phase 2: restart on the same address; the port may linger
		// briefly in TIME_WAIT, so retry the bind.
		bus2 := obs.NewBusClock(obs.StepClock(obs.TestEpoch, time.Millisecond))
		var srv2 *monitor.Server
		for i := 0; i < 200; i++ {
			if srv2, err = monitor.Start(addr, monitor.Options{Tool: "wanstream", Bus: bus2}); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		srv2ch <- srv2
		if srv2 == nil {
			return
		}
		waitSubs(bus2)
		bus2.Publish(obs.EventChangePoint, "rate-step", map[string]string{
			"signal": "rate", "direction": "up", "value": "24.4", "baseline": "8.05", "score": "3.2",
		})
		bus2.Publish(obs.EventVerdict, "bursty", verdictAttrs("61"))
	}()

	code, out, stderr := runTool(t, "watch", "-max", "4",
		"-reconnect", "50", "-reconnect-wait", "10ms", addr)
	if srv2 := <-srv2ch; srv2 != nil {
		defer srv2.Close()
	} else {
		t.Fatal("could not restart the monitor on the watched address")
	}
	if code != 0 {
		t.Fatalf("watch exit %d, stderr: %s\nout: %s", code, stderr, out)
	}
	for _, want := range []string{
		"verdict poisson",
		"rate=8.02/s",
		"reattaching in",
		"CHANGE rate-step: rate up (24.4 from 8.05, score 3.2)",
		"verdict bursty",
		"stream ended: 4 event(s), verdicts: 1 bursty, 2 poisson, 1 changepoint(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("watch output missing %q:\n%s", want, out)
		}
	}
}

// TestWatchReconnectGivesUp bounds the resilience: when the monitor
// dies for good, the watch must stop after -reconnect consecutive
// fruitless attempts and exit 1.
func TestWatchReconnectGivesUp(t *testing.T) {
	bus := obs.NewBusClock(obs.StepClock(obs.TestEpoch, time.Millisecond))
	srv, err := monitor.Start("127.0.0.1:0", monitor.Options{Tool: "wanstream", Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		waitSubs(bus)
		bus.Publish(obs.EventVerdict, "poisson", verdictAttrs("6"))
		time.Sleep(150 * time.Millisecond)
		srv.Close() // and never come back
	}()
	code, out, _ := runTool(t, "watch", "-reconnect", "2", "-reconnect-wait", "5ms", srv.Addr())
	if code != 1 {
		t.Fatalf("watch against a dead monitor: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "reattaching in") {
		t.Errorf("watch never announced a reattach:\n%s", out)
	}
	if !strings.Contains(out, "stream ended:") {
		t.Errorf("watch gave up without a summary:\n%s", out)
	}
}

func TestBackoffWait(t *testing.T) {
	base := 100 * time.Millisecond
	for _, tc := range []struct {
		failures int
		want     time.Duration
	}{
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{3, 400 * time.Millisecond},
		{10, 10 * time.Second}, // capped
	} {
		if got := backoffWait(base, tc.failures); got != tc.want {
			t.Errorf("backoffWait(%v, %d) = %v, want %v", base, tc.failures, got, tc.want)
		}
	}
}

func TestWatchNoServer(t *testing.T) {
	// Reserved port with nothing listening: fail fast, exit 1.
	code, _, _ := runTool(t, "watch", "-timeout", "2s", "127.0.0.1:1")
	if code != 1 {
		t.Errorf("watch against dead port: exit %d, want 1", code)
	}
}

func TestCheckFileAndURL(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("runner.jobs.done").Add(3)
	reg.Histogram("runner.run_ms", nil).Observe(5)

	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	os.WriteFile(good, reg.OpenMetrics(), 0o644)
	if code, out, _ := runTool(t, "check", good); code != 0 || !strings.Contains(out, "valid OpenMetrics, 2 metric families") {
		t.Errorf("check good file: exit %d, out %q", code, out)
	}

	bad := filepath.Join(dir, "bad.txt")
	os.WriteFile(bad, []byte("garbage 1\n"), 0o644)
	if code, _, _ := runTool(t, "check", bad); code != 1 {
		t.Errorf("check bad file: exit %d, want 1", code)
	}

	srv, err := monitor.Start("127.0.0.1:0", monitor.Options{Tool: "t", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _, _ := runTool(t, "check", srv.URL()+"/metrics"); code != 0 {
		t.Errorf("check live endpoint: exit %d, want 0", code)
	}
}
