package trace

import (
	"fmt"
	"io"

	"wantraffic/internal/obs"
)

// Decode hardening. The paper's own datasets were messy — truncated
// traces, clock drift, dropped SYN/FIN records (Section II and the
// Appendix A caveats) — so the readers support two modes:
//
//   - strict (the zero DecodeOptions): any malformed record aborts
//     the decode with an error;
//   - lenient: malformed records are skipped with per-record error
//     accounting in DecodeStats, so a partially corrupted trace still
//     yields its intact records.
//
// In both modes hard resource limits apply: a line longer than
// MaxLineBytes or more records than MaxRecords aborts the decode
// (resource exhaustion is never forgiven, even leniently), and the
// binary readers bound preallocation so a tampered header cannot
// force a huge allocation before the stream disproves its count.

// DecodeOptions configure a trace decode.
type DecodeOptions struct {
	// Lenient skips malformed records (accounted in DecodeStats)
	// instead of aborting. Header errors and resource-limit
	// violations still abort.
	Lenient bool
	// MaxLineBytes bounds a single text line; 0 selects
	// DefaultMaxLineBytes. Exceeding it aborts in both modes.
	MaxLineBytes int
	// MaxRecords bounds the number of decoded records; 0 selects
	// DefaultMaxRecords. Exceeding it aborts in both modes, and the
	// binary readers reject headers claiming more up front.
	MaxRecords int
	// MaxErrors bounds how many per-record error messages DecodeStats
	// retains (the skip *counts* are always exact); 0 selects
	// DefaultMaxErrors.
	MaxErrors int
	// Metrics, when non-nil, accumulates every decode's totals into
	// trace.* counters (trace.lines.read, trace.records.kept,
	// trace.records.skipped, trace.bytes.read) when the decode
	// returns — including decodes that abort with an error.
	Metrics *obs.Registry
}

// Default resource limits for DecodeOptions zero values.
const (
	DefaultMaxLineBytes = 1 << 20
	DefaultMaxRecords   = 1 << 31
	DefaultMaxErrors    = 10
)

func (o DecodeOptions) withDefaults() DecodeOptions {
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = DefaultMaxLineBytes
	}
	if o.MaxRecords <= 0 {
		o.MaxRecords = DefaultMaxRecords
	}
	if o.MaxErrors <= 0 {
		o.MaxErrors = DefaultMaxErrors
	}
	return o
}

// DecodeStats accounts for a decode: every data record the reader saw
// is either kept or skipped (lenient mode), so
// RecordsKept + RecordsSkipped equals the number of record lines (or
// binary records) encountered.
type DecodeStats struct {
	// LinesRead counts every line consumed, including the header,
	// comments and blanks (text readers only).
	LinesRead int `json:"lines_read,omitempty"`
	// RecordsKept is the number of records decoded into the trace.
	RecordsKept int `json:"records_kept"`
	// RecordsSkipped is the number of malformed records dropped in
	// lenient mode (always 0 in strict mode — the first one aborts).
	RecordsSkipped int `json:"records_skipped"`
	// BytesRead counts bytes drawn from the underlying reader,
	// including any readahead buffered past the last decoded record.
	BytesRead int64 `json:"bytes_read,omitempty"`
	// Errors holds the first MaxErrors per-record error messages.
	Errors []string `json:"errors,omitempty"`

	maxErrors int
}

// skip accounts one malformed record.
func (s *DecodeStats) skip(err error) {
	s.RecordsSkipped++
	if len(s.Errors) < s.maxErrors {
		s.Errors = append(s.Errors, err.Error())
	}
}

// record publishes the decode totals into the registry. A nil
// registry no-ops, so every reader calls this unconditionally.
func (s *DecodeStats) record(reg *obs.Registry) {
	reg.Counter("trace.lines.read").Add(int64(s.LinesRead))
	reg.Counter("trace.records.kept").Add(int64(s.RecordsKept))
	reg.Counter("trace.records.skipped").Add(int64(s.RecordsSkipped))
	reg.Counter("trace.bytes.read").Add(s.BytesRead)
}

// countReader tallies bytes drawn from the underlying stream, the
// source of DecodeStats.BytesRead.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// String summarizes the decode for logs and CLI output.
func (s DecodeStats) String() string {
	return fmt.Sprintf("decode: %d lines, %d records kept, %d skipped",
		s.LinesRead, s.RecordsKept, s.RecordsSkipped)
}
