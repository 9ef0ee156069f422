package main

import (
	"os"
	"path/filepath"

	"bytes"
	"strings"
	"testing"
	"wantraffic/internal/trace"

	"wantraffic/internal/cli"
)

func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
		{"unknown flag", []string{"-bogus"}, cli.ExitUsage, ""},
		{"negative telnet", []string{"-telnet", "-3"}, cli.ExitUsage, "-telnet must be >= 0"},
		{"negative ftp", []string{"-ftp", "-1"}, cli.ExitUsage, "-ftp must be >= 0"},
		{"zero hours", []string{"-telnet", "10", "-hours", "0"}, cli.ExitUsage, "-hours must be > 0"},
		{"zero days", []string{"-ftp", "100", "-days", "0"}, cli.ExitUsage, "-days must be > 0"},
		{"nothing to do", nil, cli.ExitUsage, "nothing to do"},
		{"unknown dataset", []string{"-dataset", "NOPE"}, cli.ExitUsage, "unknown dataset"},
		{"bad output path", []string{"-telnet", "5", "-hours", "0.1", "-o", "/nonexistent/dir/x.pkt"}, cli.ExitFailure, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			err := run(tc.args, &out, &errw)
			if got := cli.ExitCode(err); got != tc.code {
				t.Errorf("run(%v) exit %d, want %d (err: %v)", tc.args, got, tc.code, err)
			}
			if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("run(%v) err %v, want substring %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestListAndGenerate(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-list"}, &out, &errw); err != nil {
		t.Fatalf("-list: %v", err)
	}
	if !strings.Contains(out.String(), "LBL-1") {
		t.Errorf("-list output missing datasets:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-telnet", "20", "-hours", "0.1"}, &out, &errw); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if !strings.HasPrefix(out.String(), "#pkttrace full-tel") {
		t.Errorf("generated trace has wrong header:\n%.80s", out.String())
	}
}

// TestBinaryOutput: -binary must emit the compact framing for both
// trace kinds, decode back to exactly the trace the text encoder
// describes.
func TestBinaryOutput(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		args  []string
		magic string
	}{
		{"conn", []string{"-ftp", "200", "-days", "1", "-seed", "7"}, "WCT1"},
		{"packet", []string{"-telnet", "30", "-hours", "0.2", "-seed", "7"}, "WPT1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			textPath := filepath.Join(dir, tc.name+".text")
			binPath := filepath.Join(dir, tc.name+".bin")
			var out, errw bytes.Buffer
			if err := run(append(tc.args, "-o", textPath), &out, &errw); err != nil {
				t.Fatal(err)
			}
			if err := run(append(tc.args, "-binary", "-o", binPath), &out, &errw); err != nil {
				t.Fatal(err)
			}
			text, err := os.ReadFile(textPath)
			if err != nil {
				t.Fatal(err)
			}
			bin, err := os.ReadFile(binPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(bin, []byte(tc.magic)) {
				t.Fatalf("-binary output lacks %s magic: % x", tc.magic, bin[:8])
			}
			if tc.name == "conn" {
				want, _, err := trace.ReadConnTrace(bytes.NewReader(text), trace.DecodeOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := trace.ReadConnTrace(bytes.NewReader(bin), trace.DecodeOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if got.Name != want.Name || len(got.Conns) != len(want.Conns) {
					t.Errorf("binary decodes to %s/%d conns, text to %s/%d",
						got.Name, len(got.Conns), want.Name, len(want.Conns))
				}
			} else {
				want, _, err := trace.ReadPacketTrace(bytes.NewReader(text), trace.DecodeOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := trace.ReadPacketTrace(bytes.NewReader(bin), trace.DecodeOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if got.Name != want.Name || len(got.Packets) != len(want.Packets) {
					t.Errorf("binary decodes to %s/%d packets, text to %s/%d",
						got.Name, len(got.Packets), want.Name, len(want.Packets))
				}
			}
		})
	}
}
