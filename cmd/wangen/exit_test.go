package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"wantraffic/internal/cli"
)

// wangenBin is the tool built once by TestMain; empty under -short.
var wangenBin string

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(func() int {
		if testing.Short() {
			return m.Run()
		}
		dir, err := os.MkdirTemp("", "wangen-test-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		wangenBin = filepath.Join(dir, "wangen")
		if out, err := exec.Command("go", "build", "-o", wangenBin, ".").CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building wangen: %v\n%s", err, out)
			return 1
		}
		return m.Run()
	}())
}

// TestUsageErrorExitStatus runs the built tool: a usage error must end
// the process with status 2 (internal/cli's contract), not just make
// run return a usage error, and print its message on stderr.
func TestUsageErrorExitStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds wangen")
	}
	var stderr bytes.Buffer
	cmd := exec.Command(wangenBin, "-dataset", "NOPE")
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != cli.ExitUsage {
		t.Fatalf("wangen -dataset NOPE: %v, want exit status %d", err, cli.ExitUsage)
	}
	if want := "wangen: unknown dataset"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q does not contain %q", stderr.String(), want)
	}
}
