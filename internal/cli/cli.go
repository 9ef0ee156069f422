// Package cli defines the failure semantics shared by the four
// command-line tools (paperfig, wansim, wanstats, wangen): a common
// exit-code contract, typed errors that carry their exit code, and
// flag-validation helpers.
//
// Exit codes:
//
//	0  success
//	1  hard failure (I/O error, no usable output produced)
//	2  usage error (bad flags, invalid argument values)
//	3  partial success (some output produced, some work failed —
//	   e.g. a failed experiment driver replaced by a placeholder, or
//	   a lenient trace decode that skipped records)
//
// The distinction lets scripts and CI retry hard failures, fix usage
// errors, and accept-but-flag partial results — the graceful
// degradation a measurement pipeline needs when its inputs are messy.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// Exit codes of the cmd/ tools.
const (
	ExitOK      = 0
	ExitFailure = 1
	ExitUsage   = 2
	ExitPartial = 3
)

// codedError is an error carrying its exit code.
type codedError struct {
	code int
	msg  string
}

func (e *codedError) Error() string { return e.msg }

// Usagef returns a usage error (exit code 2): bad flags or invalid
// argument values.
func Usagef(format string, args ...any) error {
	return &codedError{code: ExitUsage, msg: fmt.Sprintf(format, args...)}
}

// Partialf returns a partial-success error (exit code 3): the tool
// produced usable output but some work failed.
func Partialf(format string, args ...any) error {
	return &codedError{code: ExitPartial, msg: fmt.Sprintf(format, args...)}
}

// ExitCode maps an error from a tool's run function to its exit code:
// nil → 0, flag.ErrHelp → 0 (the flag package already printed usage),
// typed errors carry their own code, anything else is a hard failure.
func ExitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return ExitOK
	}
	var coded *codedError
	if errors.As(err, &coded) {
		return coded.code
	}
	return ExitFailure
}

// Main runs a tool's run function with the process's arguments and
// standard streams, prints the error (if any) prefixed with the tool
// name, and returns the exit code for os.Exit.
func Main(tool string, run func(args []string, stdout, stderr io.Writer) error) int {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	}
	return ExitCode(err)
}

// NewFlagSet returns a FlagSet wired for testable tools: errors are
// returned (not os.Exit'd) and usage goes to stderr.
func NewFlagSet(tool string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// ParseFlags parses args, mapping flag-package errors to the usage
// exit code (flag.ErrHelp passes through unchanged: exit 0).
func ParseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &codedError{code: ExitUsage, msg: err.Error()}
	}
	return nil
}

// NonNegative rejects negative flag values (rates may be 0 = off).
func NonNegative(name string, v float64) error {
	if v < 0 {
		return Usagef("-%s must be >= 0, got %g", name, v)
	}
	return nil
}

// Positive rejects zero or negative flag values.
func Positive(name string, v float64) error {
	if v <= 0 {
		return Usagef("-%s must be > 0, got %g", name, v)
	}
	return nil
}

// FirstErr returns the first non-nil error, for chaining validations.
func FirstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// BaseURL turns an address argument into a base URL, the address
// convention of the tools that talk to a monitor or coordinator:
// ":8077" → "http://127.0.0.1:8077", "host:port" → "http://host:port",
// full URLs pass through with any trailing slash trimmed.
func BaseURL(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimRight(addr, "/")
	}
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	return "http://" + addr
}
