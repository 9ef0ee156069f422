package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// wanloadBin and wanstreamBin are the binaries TestMain builds for
// TestDashLivePipeline, which needs two processes joined by a pipe;
// empty under -short.
var wanloadBin, wanstreamBin string

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(func() int {
		if testing.Short() {
			return m.Run()
		}
		dir, err := os.MkdirTemp("", "wanmon-test-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		wanloadBin = filepath.Join(dir, "wanload")
		wanstreamBin = filepath.Join(dir, "wanstream")
		for bin, pkg := range map[string]string{wanloadBin: "../wanload", wanstreamBin: "../wanstream"} {
			if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
				fmt.Fprintf(os.Stderr, "building %s: %v\n%s", pkg, err, out)
				return 1
			}
		}
		return m.Run()
	}())
}

// lockedBuffer lets a child process and the polling test share its
// output.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond every 100 ms until it holds or the budget runs
// out.
func waitFor(budget time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(budget); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

var bannerURL = regexp.MustCompile(`(?m)^monitor: serving on (http://\S+)$`)

// TestDashLivePipeline is the dash gate drilled from outside two live
// processes: a wanload-synthesized pipeline (its pipeline ID in the
// trace framing) streams through a pipe into wanstream -follow, whose
// monitor self-scrapes every 250 ms. While the replay runs, the dash
// shows the window-close stage and the pipeline row and passes a
// generous freshness SLO (exit 0); /metrics/history is sampled and
// every watermark in it is monotone; wanmon snapshot writes a
// self-contained bundle. Once the replay is over and the watermarks
// freeze in the linger window, a tight SLO trips the gate (exit 3),
// and POST /quitquitquit ends the run.
func TestDashLivePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds wanload and wanstream and runs a 10 s live pipeline")
	}
	dir := t.TempDir()
	scenario := filepath.Join(dir, "dash.json")
	if err := os.WriteFile(scenario, []byte(`{
  "name": "dash-smoke",
  "kind": "conn",
  "horizon": 1200,
  "sources": [
    {"name": "tel", "proto": "TELNET", "pattern": "poisson", "users": 64, "rate": 30}
  ]
}`), 0o644); err != nil {
		t.Fatal(err)
	}

	// 1200 trace seconds at -dilate 120: about 10 wall seconds of live
	// pipeline.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	var loadErr, followOut, serveLog lockedBuffer
	load := exec.Command(wanloadBin, "-seed", "42", "-dilate", "120", "-pipeline-id", "auto", scenario)
	load.Stdout, load.Stderr = pw, &loadErr
	follow := exec.Command(wanstreamBin, "-follow", "-obs-window", "10", "-obs-keep", "24", "-obs-warmup", "8",
		"-serve", "127.0.0.1:0", "-serve-linger", "120s", "-history-interval", "250ms", "-")
	follow.Stdin, follow.Stdout, follow.Stderr = pr, &followOut, &serveLog
	if err := follow.Start(); err != nil {
		t.Fatal(err)
	}
	if err := load.Start(); err != nil {
		follow.Process.Kill()
		follow.Wait()
		t.Fatal(err)
	}
	pr.Close()
	pw.Close()
	var loadExit, followExit error
	exited := make(chan struct{})
	go func() {
		loadExit, followExit = load.Wait(), follow.Wait()
		close(exited)
	}()
	defer func() {
		load.Process.Kill()
		follow.Process.Kill()
		<-exited
	}()

	var url string
	if !waitFor(20*time.Second, func() bool {
		m := bannerURL.FindStringSubmatch(serveLog.String())
		if m != nil {
			url = m[1]
		}
		return m != nil
	}) {
		t.Fatalf("no monitor banner; wanstream stderr:\n%s", serveLog.String())
	}

	// Healthy gate: the watermarks advance, so a generous SLO passes.
	code, out, stderr := runTool(t, "dash", "-watch", "4s", "-interval", "250ms", "-slo-lag", "60s", url)
	if code != 0 {
		t.Fatalf("dash -slo-lag 60s: exit %d, want 0\nstderr: %s\nout: %s", code, stderr, out)
	}
	for _, want := range []string{"window_close", "pipeline p", "slo: ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("dash output lacks %q:\n%s", want, out)
		}
	}

	// The history endpoint: sampled, and every watermark monotone.
	h, err := fetchHistory(&http.Client{Timeout: 10 * time.Second}, url)
	if err != nil {
		t.Fatal(err)
	}
	if h.Scrapes < 8 {
		t.Errorf("history holds %d scrapes, want >= 8", h.Scrapes)
	}
	marks := 0
	for _, s := range h.Series {
		if !strings.HasSuffix(s.Name, "watermark_seconds") {
			continue
		}
		marks++
		for i := 1; i < len(s.Samples); i++ {
			if s.Samples[i][1] < s.Samples[i-1][1] {
				t.Errorf("%s went backwards at sample %d: %v after %v", s.Name, i, s.Samples[i][1], s.Samples[i-1][1])
				break
			}
		}
		if strings.HasPrefix(s.Name, "window_close") && len(s.Samples) < 8 {
			t.Errorf("%s has %d samples, want >= 8", s.Name, len(s.Samples))
		}
	}
	if marks == 0 {
		t.Errorf("no watermark series in the history")
	}

	// The offline bundle: health, exposition and history in one file.
	snap := filepath.Join(dir, "snap.json")
	if code, _, stderr := runTool(t, "snapshot", "-o", snap, url); code != 0 {
		t.Fatalf("snapshot: exit %d, stderr: %s", code, stderr)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var rep snapshotReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	var health struct {
		Tool string `json:"tool"`
	}
	var hist historyDump
	switch {
	case rep.Kind != "wantraffic-snapshot/v1":
		t.Errorf("snapshot kind %q", rep.Kind)
	case json.Unmarshal(rep.Health, &health) != nil || health.Tool != "wanstream":
		t.Errorf("snapshot health %s, want tool wanstream", rep.Health)
	case !strings.Contains(rep.Metrics, "window_close_watermark_seconds"):
		t.Errorf("snapshot metrics lack window_close_watermark_seconds")
	case json.Unmarshal(rep.History, &hist) != nil || len(hist.Series) == 0:
		t.Errorf("snapshot history empty or invalid")
	}

	// The replay drains; the linger keeps the monitor and its history
	// ticker alive while the watermarks stop advancing, the stall a
	// freshness SLO exists to catch.
	if !waitFor(60*time.Second, func() bool { return strings.Contains(followOut.String(), "followed") }) {
		t.Fatalf("replay never finished; stdout:\n%s\nstderr:\n%s", followOut.String(), serveLog.String())
	}
	time.Sleep(2 * time.Second)
	code, out, stderr = runTool(t, "dash", "-watch", "2s", "-interval", "250ms", "-slo-lag", "1s", url)
	if code != 3 {
		t.Fatalf("dash -slo-lag 1s after the replay: exit %d, want 3\nstderr: %s\nout: %s", code, stderr, out)
	}
	if !strings.Contains(out, "slo: BREACHED") {
		t.Errorf("stalled dash lacks slo: BREACHED:\n%s", out)
	}

	resp, err := http.Post(url+"/quitquitquit", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /quitquitquit: %s", resp.Status)
	}
	select {
	case <-exited:
		if loadExit != nil || followExit != nil {
			t.Fatalf("pipeline exit: wanload %v, wanstream %v\nwanload stderr:\n%s", loadExit, followExit, loadErr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("POST /quitquitquit did not end the run")
	}
}
