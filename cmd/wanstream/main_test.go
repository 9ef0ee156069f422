package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wantraffic/internal/cli"
	"wantraffic/internal/coord"
	"wantraffic/internal/observe"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// writeTrace drops a small connection trace (with optional malformed
// lines) into a temp file and returns its path.
func writeTrace(t *testing.T, lines ...string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "t.conn")
	if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func goodTrace(t *testing.T) string {
	return writeTrace(t,
		"#conntrace tiny 3600",
		"1.0 2.0 TELNET 100 200 0",
		"5.0 1.5 SMTP 300 400 0",
		"9.0 0.5 TELNET 50 60 0",
	)
}

func damagedTrace(t *testing.T) string {
	return writeTrace(t,
		"#conntrace tiny 3600",
		"1.0 2.0 TELNET 100 200 0",
		"this line is garbage",
		"5.0 1.5 SMTP 300 400 0",
	)
}

func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no args", nil, cli.ExitUsage},
		{"two missing files", []string{"a", "b"}, cli.ExitFailure},
		{"unknown flag", []string{"-bogus"}, cli.ExitUsage},
		{"worker-id without coord", []string{"-worker-id", "w0", "x"}, cli.ExitUsage},
		{"resume without coord", []string{"-resume", "x"}, cli.ExitUsage},
		{"upload-every without coord", []string{"-upload-every", "100", "x"}, cli.ExitUsage},
		{"negative shard", []string{"-shard", "-1", "x"}, cli.ExitUsage},
		{"worker mode two files", []string{"-coord", ":1", "a", "b"}, cli.ExitUsage},
		{"zero shards", []string{"-shards", "0", "x"}, cli.ExitUsage},
		{"zero eps", []string{"-eps", "0", "x"}, cli.ExitUsage},
		{"negative bin", []string{"-bin", "-1", "x"}, cli.ExitUsage},
		{"zero window", []string{"-window", "0", "x"}, cli.ExitUsage},
		{"missing file", []string{"/nonexistent/path.conn"}, cli.ExitFailure},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			err := run(tc.args, &out, &errw)
			if got := cli.ExitCode(err); got != tc.code {
				t.Errorf("run(%v) exit %d, want %d (err: %v)", tc.args, got, tc.code, err)
			}
		})
	}
}

func TestCleanTraceSummary(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{goodTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitOK {
		t.Fatalf("clean trace: exit %d, want 0 (err: %v)", got, err)
	}
	for _, want := range []string{"3 records", "bytes", "duration", "gap", "arrivals"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestStrictAbortsLenientIsPartial(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{damagedTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitFailure {
		t.Fatalf("strict damaged trace: exit %d, want %d (err: %v)", got, cli.ExitFailure, err)
	}
	out.Reset()
	err = run([]string{"-lenient", damagedTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitPartial {
		t.Fatalf("lenient damaged trace: exit %d, want %d (err: %v)", got, cli.ExitPartial, err)
	}
	if !strings.Contains(out.String(), "2 records") {
		t.Errorf("summary should cover the kept records:\n%s", out.String())
	}
}

func TestJSONReport(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-json", goodTrace(t)}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Name    string `json:"name"`
		Shards  int    `json:"shards"`
		Summary struct {
			Kind    string `json:"trace_kind"`
			Records int64  `json:"records"`
			Dims    map[string]struct {
				Count int64 `json:"count"`
			} `json:"dims"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Name != "tiny" || rep.Summary.Kind != "conn" || rep.Summary.Records != 3 {
		t.Errorf("report name=%q kind=%q records=%d, want tiny/conn/3",
			rep.Name, rep.Summary.Kind, rep.Summary.Records)
	}
	if rep.Summary.Dims["bytes"].Count != 3 || rep.Summary.Dims["gap"].Count != 2 {
		t.Errorf("dims = %+v, want bytes n=3 and gap n=2", rep.Summary.Dims)
	}
}

// TestStateFileDeterministic pins the -state contract: re-running the
// same trace with the same options writes byte-identical sketch state.
func TestStateFileDeterministic(t *testing.T) {
	p := goodTrace(t)
	dir := t.TempDir()
	var states [][]byte
	for i := 0; i < 2; i++ {
		sp := filepath.Join(dir, "s.json")
		var out, errw bytes.Buffer
		if err := run([]string{"-state", sp, p}, &out, &errw); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, data)
	}
	if !bytes.Equal(states[0], states[1]) {
		t.Fatal("-state files differ between identical runs")
	}
}

// bigTrace writes a trace of n generated records, mangling the record
// indices in bad (mid-chunk positions when read with a small -chunk).
func bigTrace(t *testing.T, n int, bad map[int]bool) string {
	t.Helper()
	lines := []string{"#conntrace big 7200"}
	for i := 0; i < n; i++ {
		if bad[i] {
			lines = append(lines, "MANGLED record here")
			continue
		}
		lines = append(lines, fmt.Sprintf("%d.5 1.0 SMTP %d %d 0", i, 100+i, 200+i))
	}
	return writeTrace(t, lines...)
}

// TestLenientMidChunkSkipAccounting is the regression test for skip
// accounting inside a batch: with malformed records landing mid-chunk
// (including two adjacent ones), the partial-success message and the
// JSON decode stats must report the exact per-record skip count —
// not a count rounded to chunk granularity.
func TestLenientMidChunkSkipAccounting(t *testing.T) {
	bad := map[int]bool{10: true, 57: true, 58: true, 199: true}
	p := bigTrace(t, 200, bad)
	var out, errw bytes.Buffer
	err := run([]string{"-lenient", "-chunk", "16", "-json", p}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitPartial {
		t.Fatalf("exit %d, want %d (err: %v)", got, cli.ExitPartial, err)
	}
	if want := "4 malformed record(s)"; !strings.Contains(err.Error(), want) {
		t.Errorf("partial message %q, want substring %q", err.Error(), want)
	}
	var rep struct {
		Decode struct {
			RecordsKept    int `json:"records_kept"`
			RecordsSkipped int `json:"records_skipped"`
		} `json:"decode_stats"`
		Summary struct {
			Records int64 `json:"records"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if rep.Decode.RecordsSkipped != 4 || rep.Decode.RecordsKept != 196 || rep.Summary.Records != 196 {
		t.Errorf("decode stats %+v / summary records %d, want 4 skipped, 196 kept",
			rep.Decode, rep.Summary.Records)
	}
}

// TestBinaryTraceEndToEnd: a wangen-style binary trace must ingest
// through the sharded pipeline and summarize identically to the text
// encoding of the same records — the encodings are interchangeable
// end to end.
func TestBinaryTraceEndToEnd(t *testing.T) {
	tr := &trace.ConnTrace{Name: "bin-e2e", Horizon: 3600}
	for i := 0; i < 500; i++ {
		tr.Conns = append(tr.Conns, trace.Conn{
			Start: float64(i) * 1.5, Duration: 2, Proto: trace.SMTP,
			BytesOrig: int64(100 + i), BytesResp: int64(40 * i),
		})
	}
	dir := t.TempDir()
	textPath := filepath.Join(dir, "t.conn")
	binPath := filepath.Join(dir, "t.wct")
	var buf bytes.Buffer
	if err := trace.WriteConnTrace(&buf, tr, false); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(textPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := trace.WriteConnTrace(&buf, tr, true); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var textOut, binOut, errw bytes.Buffer
	if err := run([]string{textPath}, &textOut, &errw); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{binPath}, &binOut, &errw); err != nil {
		t.Fatal(err)
	}
	if textOut.String() != binOut.String() {
		t.Errorf("binary summary diverges from text summary:\n--- text\n%s--- binary\n%s",
			textOut.String(), binOut.String())
	}
	if !strings.Contains(binOut.String(), "500 records") {
		t.Errorf("binary summary missing record count:\n%s", binOut.String())
	}
}

// TestMultiFileMergeMatchesReference: feeding N shard files (a
// wancoord split decomposition) merges them as global shards 0..N-1,
// reproducing the canonical single-process fold byte for byte.
func TestMultiFileMergeMatchesReference(t *testing.T) {
	full := &trace.ConnTrace{Name: "multi", Horizon: 3600}
	for i := 0; i < 900; i++ {
		full.Conns = append(full.Conns, trace.Conn{
			Start: float64(i) * 2.5, Duration: 1.5, Proto: trace.SMTP,
			BytesOrig: int64(50 + i), BytesResp: int64(10 * i),
		})
	}
	const n = 3
	shards := make([]*trace.ConnTrace, n)
	for i := range shards {
		shards[i] = &trace.ConnTrace{Name: full.Name, Horizon: full.Horizon}
	}
	for i, c := range full.Conns {
		s := shards[i%n]
		s.Conns = append(s.Conns, c)
	}
	dir := t.TempDir()
	var paths []string
	var sketches []*stream.Sketch
	for i, s := range shards {
		var buf bytes.Buffer
		if err := trace.WriteConnTrace(&buf, s, false); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, fmt.Sprintf("shard%d.conn", i))
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
		sess, err := stream.NewSession(stream.ConnSketch, stream.PipelineOptions{
			Shards: 1, ShardOffset: i, Config: stream.Config{Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sess.IngestReader(context.Background(), bytes.NewReader(buf.Bytes()), trace.DecodeOptions{}); err != nil {
			t.Fatal(err)
		}
		sk, err := sess.Merged(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sketches = append(sketches, sk)
	}
	merged, err := stream.MergeSketches(sketches)
	if err != nil {
		t.Fatal(err)
	}
	refState, err := merged.State()
	if err != nil {
		t.Fatal(err)
	}
	want := coord.Digest(refState)

	var out, errw bytes.Buffer
	if err := run(append([]string{"-json"}, paths...), &out, &errw); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Shards  int    `json:"shards"`
		SHA     string `json:"state_sha256"`
		Summary struct {
			Records int64 `json:"records"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if rep.Shards != n || rep.Summary.Records != int64(len(full.Conns)) {
		t.Errorf("shards=%d records=%d, want %d/%d", rep.Shards, rep.Summary.Records, n, len(full.Conns))
	}
	if rep.SHA != want {
		t.Errorf("multi-file state_sha256 %s, reference %s", rep.SHA, want)
	}
}

// poissonTrace writes a ~200 s Poisson connection trace: steady rate,
// exponential sizes — traffic the observatory should call "poisson".
func poissonTrace(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tr := &trace.ConnTrace{Name: "steady", Horizon: 200}
	tm := 0.0
	for tm < 200 {
		tm += rng.ExpFloat64() / 8
		if tm >= 200 {
			break
		}
		tr.Conns = append(tr.Conns, trace.Conn{
			Start: tm, Duration: rng.ExpFloat64() * 5, Proto: trace.Telnet,
			BytesOrig: 1 + int64(rng.ExpFloat64()*200), BytesResp: 1 + int64(rng.ExpFloat64()*800),
		})
	}
	var buf bytes.Buffer
	if err := trace.WriteConnTrace(&buf, tr, false); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "steady.conn")
	if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFollowUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"dilate without follow", []string{"-dilate", "60", "x"}},
		{"obs-window without follow", []string{"-obs-window", "5", "x"}},
		{"obs-warmup without follow", []string{"-obs-warmup", "4", "x"}},
		{"follow with coord", []string{"-follow", "-coord", ":1", "x"}},
		{"follow two files", []string{"-follow", "a", "b"}},
		{"negative dilate", []string{"-follow", "-dilate", "-1", "x"}},
		{"explicit zero obs-window", []string{"-follow", "-obs-window", "0", "x"}},
		{"explicit zero obs-keep", []string{"-follow", "-obs-keep", "0", "x"}},
		{"explicit zero obs-halflife", []string{"-follow", "-obs-halflife", "0", "x"}},
		{"explicit zero obs-warmup", []string{"-follow", "-obs-warmup", "0", "x"}},
		{"obs-keep below 2", []string{"-follow", "-obs-keep", "1", "x"}},
		{"obs-warmup below 2", []string{"-follow", "-obs-warmup", "1", "x"}},
		{"negative obs-window", []string{"-follow", "-obs-window", "-5", "x"}},
		{"stdin among multiple files", []string{"a", "-"}},
		{"stdin with coord", []string{"-coord", ":1", "-"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if got := cli.ExitCode(run(tc.args, &out, &errw)); got != cli.ExitUsage {
				t.Errorf("run(%v) exit %d, want %d", tc.args, got, cli.ExitUsage)
			}
		})
	}
}

// TestStdinInput: "-" streams stdin through the single-input modes —
// both the one-shot pipeline and -follow — with output identical to
// reading the same trace from a file.
func TestStdinInput(t *testing.T) {
	p := goodTrace(t)
	withStdin := func(fn func()) {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		saved := os.Stdin
		os.Stdin = f
		defer func() { os.Stdin = saved }()
		fn()
	}
	var fileOut, stdinOut, errw bytes.Buffer
	if err := run([]string{p}, &fileOut, &errw); err != nil {
		t.Fatal(err)
	}
	withStdin(func() {
		if err := run([]string{"-"}, &stdinOut, &errw); err != nil {
			t.Fatal(err)
		}
	})
	if fileOut.String() != stdinOut.String() {
		t.Errorf("stdin summary differs from file summary:\n--- file\n%s--- stdin\n%s",
			fileOut.String(), stdinOut.String())
	}
	var followOut bytes.Buffer
	withStdin(func() {
		if err := run([]string{"-follow", "-"}, &followOut, &errw); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(followOut.String(), "followed 3 records") {
		t.Errorf("-follow - output:\n%s", followOut.String())
	}
}

// TestFollowVerdictLines runs the observatory over a Poisson trace:
// one verdict line per window, warming through warmup and then
// reading poisson, with a deterministic trailer. Two runs must be
// byte-identical.
func TestFollowVerdictLines(t *testing.T) {
	p := poissonTrace(t)
	args := []string{"-follow", "-obs-window", "5", "-obs-keep", "24", "-obs-warmup", "4", p}
	var first string
	for i := 0; i < 2; i++ {
		var out, errw bytes.Buffer
		if err := run(args, &out, &errw); err != nil {
			t.Fatalf("follow: %v", err)
		}
		if i == 0 {
			first = out.String()
			continue
		}
		if out.String() != first {
			t.Fatalf("identical -follow runs diverge:\n--- 1\n%s--- 2\n%s", first, out.String())
		}
	}
	for _, want := range []string{"warming", "poisson", "rate=", "disp=", "last verdict poisson", "state sha256: "} {
		if !strings.Contains(first, want) {
			t.Errorf("follow output missing %q:\n%s", want, first)
		}
	}
	if strings.Contains(first, "CHANGE") {
		t.Errorf("steady Poisson trace produced a change-point:\n%s", first)
	}
}

// TestFollowDilationInvariance is the tentpole determinism claim at
// the CLI layer: a time-dilated replay emits byte-identical output to
// a full-speed one (1e5x dilation keeps the wall cost microscopic).
func TestFollowDilationInvariance(t *testing.T) {
	p := poissonTrace(t)
	outputs := make([]string, 2)
	for i, dilate := range []string{"0", "100000"} {
		var out, errw bytes.Buffer
		if err := run([]string{"-follow", "-dilate", dilate, "-obs-warmup", "4", p}, &out, &errw); err != nil {
			t.Fatalf("dilate %s: %v", dilate, err)
		}
		outputs[i] = out.String()
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("dilated output diverges from full speed:\n--- full\n%s--- dilated\n%s", outputs[0], outputs[1])
	}
}

// TestFollowJSONAndState: -json emits one JSON object per event plus
// a summary object whose digest matches the -state file.
func TestFollowJSONAndState(t *testing.T) {
	p := poissonTrace(t)
	sp := filepath.Join(t.TempDir(), "obs.json")
	var out, errw bytes.Buffer
	if err := run([]string{"-follow", "-json", "-state", sp, p}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("want event lines plus a summary, got %d line(s)", len(lines))
	}
	for _, line := range lines[:len(lines)-1] {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line is not JSON: %v\n%s", err, line)
		}
		if ev.Kind != "verdict" && ev.Kind != "changepoint" {
			t.Fatalf("unexpected event kind %q", ev.Kind)
		}
	}
	var sum struct {
		Kind    string `json:"kind"`
		Records int64  `json:"records"`
		Windows int64  `json:"windows"`
		SHA     string `json:"state_sha256"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("summary line is not JSON: %v", err)
	}
	if sum.Kind != "summary" || sum.Records == 0 || sum.Windows == 0 {
		t.Errorf("summary = %+v", sum)
	}
	state, err := os.ReadFile(sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := coord.Digest(state); got != sum.SHA {
		t.Errorf("-state digest %s, summary says %s", got, sum.SHA)
	}
	// The state restores into a default-options observatory (the CLI
	// defaults are the library defaults).
	restored := observe.New(observe.Options{})
	if err := restored.Restore(state); err != nil {
		t.Errorf("state does not restore: %v", err)
	}
}

// TestFollowLenientDamagedTrace: decode accounting flows through to
// the partial exit like the pipeline path.
func TestFollowLenientDamagedTrace(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-follow", "-lenient", damagedTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitPartial {
		t.Fatalf("lenient damaged follow: exit %d, want %d (err: %v)", got, cli.ExitPartial, err)
	}
	if !strings.Contains(out.String(), "followed 2 records") {
		t.Errorf("trailer should cover the kept records:\n%s", out.String())
	}
}

// TestStateSHAInOutputs: both output formats surface the merged
// state's digest, and it matches the -state file's actual hash.
func TestStateSHAInOutputs(t *testing.T) {
	p := goodTrace(t)
	sp := filepath.Join(t.TempDir(), "s.json")
	var out, errw bytes.Buffer
	if err := run([]string{"-state", sp, p}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(sp)
	if err != nil {
		t.Fatal(err)
	}
	want := coord.Digest(data)
	if !strings.Contains(out.String(), "state sha256: "+want) {
		t.Errorf("text summary missing digest %s:\n%s", want, out.String())
	}
	out.Reset()
	if err := run([]string{"-json", p}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		SHA string `json:"state_sha256"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SHA != want {
		t.Errorf("json state_sha256 %s, want %s", rep.SHA, want)
	}
}
