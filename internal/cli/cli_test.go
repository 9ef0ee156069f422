package cli

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
)

func TestExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{flag.ErrHelp, ExitOK},
		{errors.New("disk on fire"), ExitFailure},
		{Usagef("bad flag"), ExitUsage},
		{Partialf("3 of 30 failed"), ExitPartial},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestCodedErrorsWrapCleanly(t *testing.T) {
	err := Usagef("-rate must be > 0, got %g", -1.0)
	if !strings.Contains(err.Error(), "-rate must be > 0") {
		t.Errorf("message lost: %v", err)
	}
	// Wrapping preserves the code.
	wrapped := errorsJoin("context", err)
	if ExitCode(wrapped) != ExitUsage {
		t.Errorf("wrapped usage error lost its code: %d", ExitCode(wrapped))
	}
}

func errorsJoin(msg string, err error) error {
	return &wrapErr{msg: msg, err: err}
}

type wrapErr struct {
	msg string
	err error
}

func (w *wrapErr) Error() string { return w.msg + ": " + w.err.Error() }
func (w *wrapErr) Unwrap() error { return w.err }

func TestParseFlagsMapsErrors(t *testing.T) {
	fs := NewFlagSet("tool", io.Discard)
	fs.Int("n", 1, "")
	if err := ParseFlags(fs, []string{"-n", "5"}); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	fs = NewFlagSet("tool", io.Discard)
	fs.Int("n", 1, "")
	err := ParseFlags(fs, []string{"-bogus"})
	if ExitCode(err) != ExitUsage {
		t.Errorf("unknown flag: exit %d, want %d", ExitCode(err), ExitUsage)
	}
	fs = NewFlagSet("tool", io.Discard)
	err = ParseFlags(fs, []string{"-h"})
	if !errors.Is(err, flag.ErrHelp) || ExitCode(err) != ExitOK {
		t.Errorf("-h: err %v exit %d, want ErrHelp and 0", err, ExitCode(err))
	}
}

func TestValidators(t *testing.T) {
	if err := NonNegative("telnet", 0); err != nil {
		t.Errorf("0 is a valid rate: %v", err)
	}
	if err := NonNegative("telnet", -3); ExitCode(err) != ExitUsage {
		t.Error("negative rate must be a usage error")
	}
	if err := Positive("rate", 0); ExitCode(err) != ExitUsage {
		t.Error("zero must fail Positive")
	}
	if err := FirstErr(nil, nil, Usagef("x"), Partialf("y")); ExitCode(err) != ExitUsage {
		t.Error("FirstErr must return the first error")
	}
	if err := FirstErr(nil, nil); err != nil {
		t.Error("FirstErr with no errors must return nil")
	}
}

func TestBaseURL(t *testing.T) {
	cases := map[string]string{
		":8077":                  "http://127.0.0.1:8077",
		"127.0.0.1:8077":         "http://127.0.0.1:8077",
		"http://example.com:80/": "http://example.com:80",
	}
	for in, want := range cases {
		if got := BaseURL(in); got != want {
			t.Errorf("BaseURL(%q) = %q, want %q", in, got, want)
		}
	}
}
