package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"wantraffic/internal/trace"

	"wantraffic/internal/cli"
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
		{"two args", []string{"a", "b"}, cli.ExitUsage},
		{"unknown flag", []string{"-bogus"}, cli.ExitUsage},
		{"zero interval", []string{"-interval", "0", "x"}, cli.ExitUsage},
		{"negative bin", []string{"-bin", "-1", "x"}, cli.ExitUsage},
		{"zero max-line", []string{"-max-line-bytes", "0", "x"}, cli.ExitUsage},
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

func TestStrictAbortsOnDamage(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{damagedTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitFailure {
		t.Fatalf("strict damaged trace: exit %d, want %d (err: %v)", got, cli.ExitFailure, err)
	}
}

func TestLenientIsPartialSuccess(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-lenient", damagedTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitPartial {
		t.Fatalf("lenient damaged trace: exit %d, want %d (err: %v)", got, cli.ExitPartial, err)
	}
	if !strings.Contains(out.String(), "1 skipped") {
		t.Errorf("decode accounting missing from output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "2 connections") {
		t.Errorf("analysis should still run on the kept records:\n%s", out.String())
	}
}

func TestCleanTraceExitsZero(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{goodTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitOK {
		t.Fatalf("clean trace: exit %d, want 0 (err: %v)", got, err)
	}
	// Lenient on a clean trace is also a full success.
	err = run([]string{"-lenient", goodTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitOK {
		t.Fatalf("lenient clean trace: exit %d, want 0 (err: %v)", got, err)
	}
}

func TestUnrecognizedHeader(t *testing.T) {
	p := writeTrace(t, "not a trace at all", "second line")
	var out, errw bytes.Buffer
	err := run([]string{p}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitFailure {
		t.Fatalf("bogus header: exit %d, want %d (err: %v)", got, cli.ExitFailure, err)
	}
}

// TestRejectsBadHorizon: a header horizon that is not a positive
// finite number is a hard failure naming the horizon, for both record
// kinds in both encodings, not a panic inside the analysis.
func TestRejectsBadHorizon(t *testing.T) {
	for _, h := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		for _, kind := range []string{"conn", "packet"} {
			for _, binary := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/binary=%v", kind, h, binary)
				t.Run(name, func(t *testing.T) {
					var buf bytes.Buffer
					var err error
					if kind == "conn" {
						err = trace.WriteConnTrace(&buf, &trace.ConnTrace{Name: "x", Horizon: h}, binary)
					} else {
						err = trace.WritePacketTrace(&buf, &trace.PacketTrace{Name: "x", Horizon: h}, binary)
					}
					if err != nil {
						t.Fatal(err)
					}
					p := filepath.Join(t.TempDir(), "t.trace")
					if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					var out, errw bytes.Buffer
					err = run([]string{p}, &out, &errw)
					if got := cli.ExitCode(err); got != cli.ExitFailure {
						t.Fatalf("exit %d, want %d (err: %v)", got, cli.ExitFailure, err)
					}
					if want := fmt.Sprintf("horizon %v s", h); !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not name the horizon (%q)", err, want)
					}
				})
			}
		}
	}
}

// TestJSONReportCarriesDecodeStats pins satellite: the machine-readable
// report embeds the full decode accounting that the plain-text path
// only showed in the preamble.
func TestJSONReportCarriesDecodeStats(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-lenient", "-json", damagedTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitPartial {
		t.Fatalf("lenient -json damaged trace: exit %d, want %d (err: %v)", got, cli.ExitPartial, err)
	}
	var rep struct {
		File    string `json:"file"`
		Kind    string `json:"kind"`
		Records int    `json:"records"`
		Decode  struct {
			LinesRead      int      `json:"lines_read"`
			RecordsKept    int      `json:"records_kept"`
			RecordsSkipped int      `json:"records_skipped"`
			BytesRead      int64    `json:"bytes_read"`
			Errors         []string `json:"errors"`
		} `json:"decode_stats"`
		Analysis string `json:"analysis"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Kind != "conn" || rep.Records != 2 {
		t.Errorf("kind=%q records=%d, want conn/2", rep.Kind, rep.Records)
	}
	if rep.Decode.RecordsSkipped != 1 || rep.Decode.RecordsKept != 2 {
		t.Errorf("decode_stats = %+v, want 2 kept / 1 skipped", rep.Decode)
	}
	if rep.Decode.BytesRead == 0 {
		t.Error("decode_stats.bytes_read missing")
	}
	if len(rep.Decode.Errors) != 1 || !strings.Contains(rep.Decode.Errors[0], "line 3") {
		t.Errorf("decode_stats.errors = %v, want the line-3 skip message", rep.Decode.Errors)
	}
	if !strings.Contains(rep.Analysis, "2 connections") {
		t.Errorf("analysis text missing from report: %q", rep.Analysis)
	}
	// Analysis text must not leak onto stdout outside the JSON.
	if !json.Valid(out.Bytes()) {
		t.Error("stdout holds more than the JSON document")
	}
}

// TestObsOutputsWritten pins the shared -metrics-out/-trace-out flags
// on a cmd tool: both files exist and parse.
func TestObsOutputsWritten(t *testing.T) {
	dir := t.TempDir()
	mOut := filepath.Join(dir, "m.json")
	tOut := filepath.Join(dir, "t.json")
	var out, errw bytes.Buffer
	err := run([]string{"-metrics-out", mOut, "-trace-out", tOut, goodTrace(t)}, &out, &errw)
	if got := cli.ExitCode(err); got != cli.ExitOK {
		t.Fatalf("exit %d, want 0 (err: %v)", got, err)
	}
	raw, err := os.ReadFile(mOut)
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatalf("metrics snapshot invalid: %v\n%s", err, raw)
	}
	if metrics.Counters["trace.records.kept"] != 2 {
		t.Errorf("trace.records.kept = %d, want 2 (snapshot: %s)", metrics.Counters["trace.records.kept"], raw)
	}
	raw, err = os.ReadFile(tOut)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("Chrome trace invalid: %v\n%s", err, raw)
	}
	names := map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		names[ev.Name] = true
	}
	if !names["decode"] || !names["analyze"] {
		t.Errorf("trace export missing decode/analyze spans: %s", raw)
	}
}

// TestBinaryTraceBothModes: the binary encoding must flow through
// the batch methodology and produce the same analysis as the text
// encoding of the same records.
func TestBinaryTraceBothModes(t *testing.T) {
	tr := &trace.ConnTrace{Name: "bin-both", Horizon: 3600}
	for i := 0; i < 300; i++ {
		tr.Conns = append(tr.Conns, trace.Conn{
			Start: float64(i) * 10, Duration: 3, Proto: trace.SMTP,
			BytesOrig: int64(50 + i), BytesResp: int64(20 * i),
		})
	}
	dir := t.TempDir()
	textPath := filepath.Join(dir, "b.conn")
	binPath := filepath.Join(dir, "b.wct")
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
		t.Fatalf("text: %v", err)
	}
	if err := run([]string{binPath}, &binOut, &errw); err != nil {
		t.Fatalf("binary: %v", err)
	}
	if textOut.String() != binOut.String() {
		t.Errorf("binary analysis diverges from text:\n--- text\n%s--- binary\n%s",
			textOut.String(), binOut.String())
	}
}
