package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Record-at-a-time decoding. The batch readers (ReadConnTrace,
// ReadPacketTrace) materialize the whole trace before returning, which
// caps analyses at available memory. The scanners below pull one
// record at a time (Scan) or one batch at a time (ScanBatch) instead,
// so a streaming consumer (internal/stream, cmd/wanstream) ingests
// traces of any length in bounded memory. The batch readers drain
// these scanners' ScanBatch (readAll), so both paths share one decode
// loop per encoding — the same strict/lenient semantics, resource
// limits and DecodeStats accounting documented in decode.go.
//
// NewConnScanner and NewPacketScanner accept either encoding: the
// header read looks for the kind's binary magic and picks the decoder,
// so no caller chooses one.
//
// Usage:
//
//	sc := trace.NewConnScanner(r, opts)
//	for sc.Scan() {
//		c := sc.Conn()
//		...
//	}
//	if err := sc.Err(); err != nil { ... }
//	stats := sc.Stats()
//
// The header is read lazily on the first Scan (or Header) call; a
// header error surfaces through Err. Metrics (DecodeOptions.Metrics)
// are recorded once, when the scan terminates — EOF, error, or header
// failure — matching the batch readers' accounting.

// Kind classifies a trace stream's record type.
type Kind uint8

// Trace kinds recognized by Sniff.
const (
	KindUnknown Kind = iota
	KindConn
	KindPacket
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindConn:
		return "conn"
	case KindPacket:
		return "packet"
	}
	return "unknown"
}

// Header is the metadata of a scanned trace.
type Header struct {
	Kind    Kind
	Name    string
	Horizon float64
	Binary  bool
	// Expected is the record count a binary header promises (0 for
	// text traces, which carry no count, and for streamed binary
	// traces, whose writers did not know it).
	Expected uint64
	// Streamed reports a binary header carrying the StreamedCount
	// sentinel: records run until a clean EOF at a record boundary.
	Streamed bool
	// PipelineID is the propagated pipeline identity a live producer
	// (wanload) stamped into the framing — a "#pipeline <id>" comment
	// immediately after the text header, or a block after the binary
	// header. Empty for traces without the framing; consumers use it
	// to label end-to-end freshness gauges.
	PipelineID string
}

// SniffHeader classifies both the trace kind and its encoding without
// consuming any bytes: binary is true for the WCT1/WPT1 framing, false
// for the text formats.
func SniffHeader(br *bufio.Reader) (kind Kind, binary bool, err error) {
	magic, err := br.Peek(10)
	if err != nil && len(magic) < 4 {
		return KindUnknown, false, fmt.Errorf("trace: reading magic: %w", err)
	}
	s := string(magic)
	switch {
	case strings.HasPrefix(s, connFormat.text):
		return KindConn, false, nil
	case strings.HasPrefix(s, string(connMagic[:])):
		return KindConn, true, nil
	case strings.HasPrefix(s, packetFormat.text):
		return KindPacket, false, nil
	case strings.HasPrefix(s, string(packetMagic[:])):
		return KindPacket, true, nil
	}
	return KindUnknown, false, fmt.Errorf("trace: unrecognized trace header %q", s)
}

// scanner is the shared pull-decode state; the exported Conn/Packet
// scanners embed it with a typed current record.
type scanner[T any] struct {
	opts DecodeOptions
	cr   *countReader

	hdr   Header
	stats DecodeStats

	// pull reads the next record. ok=false with nil err is clean EOF.
	pull func() (rec T, ok bool, err error)
	// pullMany, when non-nil, decodes up to len(out) records in one
	// call: the binary decoder's loop, whose pull is a one-record
	// pullMany. done=true means the stream ended cleanly after the n
	// decoded records; an error follows the same per-record semantics
	// as pull, with the n records still valid. The text decoder has
	// none, and ScanBatch loops its pull.
	pullMany func(out []T) (n int, done bool, err error)
	// start reads the header; run lazily once.
	start func() error

	started  bool
	done     bool
	recorded bool
	err      error
	cur      T
}

// init runs the deferred header read.
func (s *scanner[T]) init() {
	if s.started {
		return
	}
	s.started = true
	if err := s.start(); err != nil {
		s.fail(err)
	}
}

// fail terminates the scan with an error.
func (s *scanner[T]) fail(err error) {
	s.err = err
	s.finish()
}

// finish closes out the scan and records metrics exactly once.
func (s *scanner[T]) finish() {
	s.done = true
	if !s.recorded {
		s.recorded = true
		s.stats.BytesRead = s.cr.n
		s.stats.record(s.opts.Metrics)
	}
}

// Scan advances to the next record, returning false at end of trace
// or on error (check Err).
func (s *scanner[T]) Scan() bool {
	s.init()
	if s.done {
		return false
	}
	rec, ok, err := s.pull()
	if err != nil {
		s.fail(err)
		return false
	}
	if !ok {
		s.finish()
		return false
	}
	s.cur = rec
	return true
}

// scanBatch decodes up to len(buf) records into buf, returning how
// many are valid. It returns io.EOF at the clean end of the trace
// (possibly alongside n > 0 final records) and the decode error
// otherwise — in both cases buf[:n] holds good records, so a caller
// can fold a partial batch before surfacing the failure. Errors are
// sticky: every later call returns (0, err). A zero-length buf
// returns (0, nil) without touching the stream. Scan and ScanBatch
// may be mixed freely; both drain the same decode state.
func (s *scanner[T]) scanBatch(buf []T) (int, error) {
	s.init()
	if s.done {
		if s.err != nil {
			return 0, s.err
		}
		return 0, io.EOF
	}
	if len(buf) == 0 {
		return 0, nil
	}
	n := 0
	if s.pullMany != nil {
		for n < len(buf) {
			k, done, err := s.pullMany(buf[n:])
			n += k
			if err != nil {
				s.fail(err)
				return n, err
			}
			if done {
				s.finish()
				return n, io.EOF
			}
		}
		return n, nil
	}
	for n < len(buf) {
		rec, ok, err := s.pull()
		if err != nil {
			s.fail(err)
			return n, err
		}
		if !ok {
			s.finish()
			return n, io.EOF
		}
		buf[n] = rec
		n++
	}
	return n, nil
}

// Err returns the terminal error, if any. Clean EOF is not an error.
func (s *scanner[T]) Err() error { return s.err }

// Header returns the trace metadata, forcing the header read; on a
// header error it returns the zero Header and Err is set.
func (s *scanner[T]) Header() Header {
	s.init()
	return s.hdr
}

// Stats returns a snapshot of the decode accounting. BytesRead
// includes readahead buffered past the last decoded record.
func (s *scanner[T]) Stats() DecodeStats {
	st := s.stats
	if st.BytesRead == 0 {
		st.BytesRead = s.cr.n
	}
	return st
}

// readAll materializes every record of a scan: the batch readers are
// this loop over their scanner's ScanBatch. A header or decode error
// discards the records and returns the stats so far.
func readAll[T any](s *scanner[T]) (Header, []T, DecodeStats, error) {
	hdr := s.Header()
	var recs []T
	// Preallocation is capped: a corrupt binary header must not force a
	// huge allocation before the (short) stream disproves its count.
	// Text headers carry no count, so text reads grow by append.
	if n := capAlloc(hdr.Expected); n > 0 {
		recs = make([]T, 0, n)
	}
	batch := make([]T, readBatch)
	for {
		n, err := s.scanBatch(batch)
		recs = append(recs, batch[:n]...)
		if err != nil {
			break
		}
	}
	// ScanBatch stops on io.EOF and on errors alike; Err tells them
	// apart.
	if err := s.Err(); err != nil {
		return hdr, nil, s.Stats(), err
	}
	return hdr, recs, s.Stats(), nil
}

// readBatch is readAll's ScanBatch size: it bounds the binary
// decoder's chunk buffer at a few kilobytes.
const readBatch = 256

// capAlloc bounds an untrusted record count for slice preallocation.
func capAlloc(count uint64) int {
	const max = 1 << 16
	if count > max {
		return max
	}
	return int(count)
}

// ConnScanner yields one connection record at a time.
type ConnScanner struct {
	scanner[Conn]
}

// Conn returns the current record after a true Scan.
func (s *ConnScanner) Conn() Conn { return s.cur }

// ScanBatch decodes up to len(buf) records into the caller-provided
// slice (typically pooled by the caller and reused across calls; only
// buf[:n] is written, so stale contents never leak into results). It
// returns io.EOF at the clean end of the trace — possibly with final
// records, which remain valid — and the decode error otherwise, with
// the n records decoded before the failure still valid.
func (s *ConnScanner) ScanBatch(buf []Conn) (n int, err error) { return s.scanBatch(buf) }

// PacketScanner yields one packet record at a time.
type PacketScanner struct {
	scanner[Packet]
}

// Packet returns the current record after a true Scan.
func (s *PacketScanner) Packet() Packet { return s.cur }

// ScanBatch decodes up to len(buf) records into the caller-provided
// slice; see ConnScanner.ScanBatch for the contract.
func (s *PacketScanner) ScanBatch(buf []Packet) (n int, err error) { return s.scanBatch(buf) }

// NewConnScanner returns a streaming reader for a connection trace in
// either encoding: input that starts with the binary magic is decoded
// as binary, anything else as text.
func NewConnScanner(r io.Reader, opts DecodeOptions) *ConnScanner {
	s := &ConnScanner{}
	initScanner(&s.scanner, r, opts, connFormat)
	return s
}

// NewPacketScanner returns a streaming reader for a packet trace in
// either encoding; see NewConnScanner.
func NewPacketScanner(r io.Reader, opts DecodeOptions) *PacketScanner {
	s := &PacketScanner{}
	initScanner(&s.scanner, r, opts, packetFormat)
	return s
}

// NewConnBinaryScanner returns a streaming reader for a binary
// connection trace only: input without the binary magic fails its
// header read.
func NewConnBinaryScanner(r io.Reader, opts DecodeOptions) *ConnScanner {
	s := &ConnScanner{}
	s.setup(r, opts)
	s.start = wireBinary(&s.scanner, connFormat)
	return s
}

// setup initializes the decode state both encodings share.
func (s *scanner[T]) setup(r io.Reader, opts DecodeOptions) {
	s.opts = opts.withDefaults()
	s.stats = DecodeStats{maxErrors: s.opts.MaxErrors}
	s.cr = &countReader{r: r}
}

// initScanner wires a scanner that decodes either of f's encodings.
// The choice waits for the lazy header read: input that starts with
// f's binary magic goes to the binary decoder, anything else to the
// text decoder, whose header check then rejects foreign or damaged
// input with the text header errors.
func initScanner[T any](s *scanner[T], r io.Reader, opts DecodeOptions, f format[T]) {
	br := bufio.NewReader(r) // r itself when it already is a bufio.Reader
	s.setup(br, opts)
	s.start = func() error {
		if m, _ := br.Peek(len(f.magic)); bytes.Equal(m, f.magic[:]) {
			return wireBinary(s, f)()
		}
		return wireText(s, f)()
	}
}

// asciiSpace classifies the whitespace bytes the record splitter
// recognizes — the ASCII set bufio and the text writers produce.
// (strings.Fields additionally treats multi-byte Unicode spaces as
// separators; record lines are machine-written ASCII, and keeping the
// splitter byte-wise is what makes the hot loop allocation-free.)
var asciiSpace = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

// trimSpaceBytes trims leading and trailing ASCII whitespace without
// allocating.
func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && asciiSpace[b[0]] {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace[b[len(b)-1]] {
		b = b[:len(b)-1]
	}
	return b
}

// splitFieldsInto appends b's whitespace-separated fields to dst
// (sub-slices of b, no copies) and returns the extended slice; called
// with dst[:0] of a reused backing array it does not allocate.
func splitFieldsInto(dst [][]byte, b []byte) [][]byte {
	i := 0
	for i < len(b) {
		for i < len(b) && asciiSpace[b[i]] {
			i++
		}
		if i == len(b) {
			break
		}
		start := i
		for i < len(b) && !asciiSpace[b[i]] {
			i++
		}
		dst = append(dst, b[start:i])
	}
	return dst
}

// wireText installs the text decoder's pull loop — header line, then
// one record per line with comments and blanks skipped, under the
// options' resource limits and leniency — and returns its header read.
// The loop parses fields directly from the bufio.Scanner's byte token
// — no per-line string or []string allocation — which is what lets
// ScanBatch feed the streaming pipeline at hardware speed.
func wireText[T any](s *scanner[T], f format[T]) func() error {
	opts := s.opts
	sc := bufio.NewScanner(s.cr)
	// The bufio.Scanner's cap is max(limit, cap(buf)), so the initial
	// buffer must not exceed the configured line limit.
	initial := 64 * 1024
	if initial > opts.MaxLineBytes {
		initial = opts.MaxLineBytes
	}
	sc.Buffer(make([]byte, initial), opts.MaxLineBytes)
	line := 0
	// The pipeline-ID comment is framed immediately after the header
	// line, so start peeks exactly one line ahead; a non-pipeline line
	// is stashed (one copy, once) and replayed by the first pull.
	var pending []byte
	havePending := false
	var peekErr error
	start := func() error {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return fmt.Errorf("trace: reading header: %w", err)
			}
			return fmt.Errorf("trace: empty input")
		}
		line = 1
		s.stats.LinesRead++
		name, horizon, err := parseHeader(sc.Text(), f.text)
		if err != nil {
			return err
		}
		s.hdr = Header{Kind: f.kind, Name: name, Horizon: horizon}
		if sc.Scan() {
			line = 2
			s.stats.LinesRead++
			text := trimSpaceBytes(sc.Bytes())
			if id, ok := parsePipelineComment(text); ok {
				s.hdr.PipelineID = id
			} else {
				pending = append(pending[:0], text...)
				havePending = true
			}
		} else if err := sc.Err(); err != nil {
			// The peek's Scan discovered the error; a later Scan call
			// would hand back the buffered partial line as a token, so
			// the error must be delivered by the first pull instead of
			// re-scanning.
			peekErr = err
		}
		return nil
	}
	// fields is reused across records; parse consumes it before the
	// next Scan invalidates the underlying token.
	var fields [][]byte
	// process decodes one trimmed record line; skip=true means the
	// line was consumed without producing a record (lenient skip).
	process := func(text []byte) (rec T, ok bool, err error, skip bool) {
		if s.stats.RecordsKept >= opts.MaxRecords {
			return rec, false, fmt.Errorf("trace: line %d: record limit %d exceeded", line, opts.MaxRecords), false
		}
		fields = splitFieldsInto(fields[:0], text)
		rec, perr := f.parse(fields, line)
		if perr != nil {
			if opts.Lenient {
				s.stats.skip(perr)
				return rec, false, nil, true
			}
			return rec, false, perr, false
		}
		s.stats.RecordsKept++
		return rec, true, nil, false
	}
	s.pull = func() (rec T, ok bool, err error) {
		if peekErr != nil {
			err := peekErr
			if err == bufio.ErrTooLong {
				err = fmt.Errorf("trace: line %d: exceeds %d-byte line limit", line+1, opts.MaxLineBytes)
			}
			return rec, false, err
		}
		if havePending {
			havePending = false
			if text := pending; len(text) > 0 && text[0] != '#' {
				rec, ok, err, skip := process(text)
				if !skip {
					return rec, ok, err
				}
			}
		}
		for sc.Scan() {
			line++
			s.stats.LinesRead++
			text := trimSpaceBytes(sc.Bytes())
			if len(text) == 0 || text[0] == '#' {
				continue
			}
			rec, ok, err, skip := process(text)
			if skip {
				continue
			}
			return rec, ok, err
		}
		if err := sc.Err(); err != nil {
			if err == bufio.ErrTooLong {
				return rec, false, fmt.Errorf("trace: line %d: exceeds %d-byte line limit", line+1, opts.MaxLineBytes)
			}
			return rec, false, err
		}
		return rec, false, nil
	}
	return start
}

// pipelineComment is the text-framing prefix of the propagated
// pipeline ID: "#pipeline <id>", written by the streaming encoders
// directly after the header line. It reads as an ordinary comment to
// decoders that predate it.
const pipelineComment = "#pipeline "

// parsePipelineComment extracts the ID from a "#pipeline <id>" line.
func parsePipelineComment(text []byte) (string, bool) {
	if len(text) <= len(pipelineComment) || string(text[:len(pipelineComment)]) != pipelineComment {
		return "", false
	}
	id := trimSpaceBytes(text[len(pipelineComment):])
	if len(id) == 0 {
		return "", false
	}
	return string(id), true
}

// wireBinary installs the binary decoder — header with an up-front
// record-count limit check, then fixed-width records — and returns its
// header read. In lenient mode a stream that ends before the header's
// count is satisfied ends the scan cleanly with the shortfall
// accounted. A StreamedCount header flips the scanner into streamed
// mode: records run until a clean EOF at a record boundary (a partial
// final record is an error in strict mode, a single skip in lenient
// mode), with MaxRecords enforced by probing for trailing data once
// the budget is spent.
func wireBinary[T any](s *scanner[T], f format[T]) func() error {
	opts := s.opts
	br := bufio.NewReader(s.cr)
	var count, next uint64
	streamed := false
	start := func() error {
		name, horizon, c, pipeline, err := readHeaderWith(br, f.magic, opts)
		if err != nil {
			return err
		}
		if c == StreamedCount {
			streamed = true
			// The record budget becomes the resource limit rather than a
			// promise; EOF anywhere under it is a clean end.
			count = uint64(opts.MaxRecords)
			s.hdr = Header{Kind: f.kind, Name: name, Horizon: horizon, Binary: true, Streamed: true, PipelineID: pipeline}
			return nil
		}
		count = c
		s.hdr = Header{Kind: f.kind, Name: name, Horizon: horizon, Binary: true, Expected: c, PipelineID: pipeline}
		return nil
	}
	// atLimit distinguishes a clean EOF from overflow once a streamed
	// scan has spent its MaxRecords budget: any trailing byte means the
	// stream kept going past the limit.
	atLimit := func() error {
		if _, err := br.ReadByte(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		return fmt.Errorf("trace: record limit %d exceeded", opts.MaxRecords)
	}
	// shortfall accounts a stream that ends before the header's count
	// is satisfied: in lenient mode every promised-but-undelivered
	// record is skipped (per record, not per chunk) and the scan ends
	// cleanly; in strict mode the error aborts. A streamed trace
	// promises nothing, so only the one partial record is skipped.
	shortfall := func(err error) (bool, error) {
		err = fmt.Errorf("trace: record %d: %w", next, err)
		if opts.Lenient {
			skipped := int(count - next)
			if streamed {
				skipped = 1
			}
			s.stats.RecordsSkipped += skipped
			if len(s.stats.Errors) < opts.MaxErrors {
				s.stats.Errors = append(s.stats.Errors, err.Error())
			}
			return true, nil
		}
		return false, err
	}
	// The one decode loop: one ReadFull per batch instead of one per
	// record. chunk is reused across calls.
	var chunk []byte
	s.pullMany = func(out []T) (int, bool, error) {
		if next >= count {
			if streamed {
				return 0, true, atLimit()
			}
			return 0, true, nil
		}
		k := len(out)
		if rem := count - next; uint64(k) > rem {
			k = int(rem)
		}
		need := k * f.size
		if cap(chunk) < need {
			chunk = make([]byte, need)
		}
		c := chunk[:need]
		nread, rerr := io.ReadFull(br, c)
		complete := nread / f.size
		for i := 0; i < complete; i++ {
			out[i] = f.decode(c[i*f.size : (i+1)*f.size])
		}
		next += uint64(complete)
		s.stats.RecordsKept += complete
		if rerr != nil {
			// Re-derive the error reading record `next` alone would have
			// hit: ReadFull's aggregate classification calls a clean
			// record boundary an unexpected EOF, so unwrap to the
			// underlying error and reclassify against the partial
			// record's byte count.
			under := rerr
			if under == io.ErrUnexpectedEOF {
				under = io.EOF
			}
			perr := under
			if nread%f.size != 0 && under == io.EOF {
				perr = io.ErrUnexpectedEOF
			}
			if streamed && perr == io.EOF {
				return complete, true, nil
			}
			done, err := shortfall(perr)
			return complete, done, err
		}
		// In streamed mode a full batch says nothing about the end of
		// the stream; the next call discovers EOF (or the limit probe).
		return k, !streamed && next >= count, nil
	}
	var one [1]T
	s.pull = func() (rec T, ok bool, err error) {
		n, _, err := s.pullMany(one[:])
		if n == 0 {
			return rec, false, err
		}
		return one[0], true, nil
	}
	return start
}
