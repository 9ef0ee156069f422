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

// wansimBin is the tool built once by TestMain; empty under -short.
var wansimBin string

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(func() int {
		if testing.Short() {
			return m.Run()
		}
		dir, err := os.MkdirTemp("", "wansim-test-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		wansimBin = filepath.Join(dir, "wansim")
		if out, err := exec.Command("go", "build", "-o", wansimBin, ".").CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building wansim: %v\n%s", err, out)
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
		t.Skip("builds wansim")
	}
	var stderr bytes.Buffer
	cmd := exec.Command(wansimBin, "-telnet", "-5")
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != cli.ExitUsage {
		t.Fatalf("wansim -telnet -5: %v, want exit status %d", err, cli.ExitUsage)
	}
	if want := "wansim: -telnet must be >= 0"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q does not contain %q", stderr.String(), want)
	}
}
