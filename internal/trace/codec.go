package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text codec writes one record per line with space-separated
// fields, preceded by a header line carrying trace metadata:
//
//	#conntrace <name> <horizon>
//	<start> <duration> <proto> <bytesOrig> <bytesResp> <sessionID>
//
//	#pkttrace <name> <horizon>
//	<time> <size> <proto> <connID>
//
// Lines beginning with '#' after the header are comments.

// WriteConnTrace encodes a connection trace to w through a
// ConnEncoder, the text codec's one formatter.
func WriteConnTrace(w io.Writer, t *ConnTrace) error {
	enc, err := NewConnEncoder(w, t.Name, t.Horizon, false)
	if err != nil {
		return err
	}
	return writeAll(enc, t.Conns)
}

// ReadConnTrace decodes a connection trace from r in strict mode: the
// first malformed record aborts the decode.
func ReadConnTrace(r io.Reader) (*ConnTrace, error) {
	t, _, err := ReadConnTraceWith(r, DecodeOptions{})
	return t, err
}

// parseConnLine decodes one record line of a connection trace. The
// fields arrive as sub-slices of the scanner's line buffer; the
// string(...) conversions below stay on the stack for short numeric
// fields (strconv does not retain its argument on success), so the
// hot path decodes without per-line heap allocation.
func parseConnLine(f [][]byte, line int) (Conn, error) {
	var c Conn
	var err error
	if len(f) != 6 {
		return c, fmt.Errorf("trace: line %d: want 6 fields, got %d", line, len(f))
	}
	if c.Start, err = strconv.ParseFloat(string(f[0]), 64); err != nil {
		return c, fmt.Errorf("trace: line %d: start: %w", line, err)
	}
	if c.Duration, err = strconv.ParseFloat(string(f[1]), 64); err != nil {
		return c, fmt.Errorf("trace: line %d: duration: %w", line, err)
	}
	c.Proto = matchProtocol(f[2])
	if c.BytesOrig, err = strconv.ParseInt(string(f[3]), 10, 64); err != nil {
		return c, fmt.Errorf("trace: line %d: bytesOrig: %w", line, err)
	}
	if c.BytesResp, err = strconv.ParseInt(string(f[4]), 10, 64); err != nil {
		return c, fmt.Errorf("trace: line %d: bytesResp: %w", line, err)
	}
	if c.SessionID, err = strconv.ParseInt(string(f[5]), 10, 64); err != nil {
		return c, fmt.Errorf("trace: line %d: sessionID: %w", line, err)
	}
	return c, nil
}

// matchProtocol is ParseProtocol over a raw field: the exact
// upper-case names map to their protocol, everything else to Other.
// The string(b) comparisons compile to byte compares, so no
// conversion is allocated.
func matchProtocol(b []byte) Protocol {
	switch len(b) {
	case 3:
		switch {
		case string(b) == "FTP":
			return FTP
		case string(b) == "WWW":
			return WWW
		case string(b) == "X11":
			return X11
		}
	case 4:
		switch {
		case string(b) == "SMTP":
			return SMTP
		case string(b) == "NNTP":
			return NNTP
		}
	case 6:
		switch {
		case string(b) == "TELNET":
			return Telnet
		case string(b) == "RLOGIN":
			return Rlogin
		}
	case 7:
		if string(b) == "FTPDATA" {
			return FTPData
		}
	}
	return Other
}

// ReadConnTraceWith decodes a connection trace under the given
// options. In lenient mode malformed records are skipped and
// accounted in the returned DecodeStats; header errors and resource
// limits (line length, record count) abort in both modes. It
// materializes NewConnScanner's records — streaming consumers that
// must not hold the full trace use the scanner directly.
func ReadConnTraceWith(r io.Reader, opts DecodeOptions) (*ConnTrace, DecodeStats, error) {
	hdr, conns, stats, err := readAll(&NewConnScanner(r, opts).scanner)
	if err != nil {
		return nil, stats, err
	}
	return &ConnTrace{Name: hdr.Name, Horizon: hdr.Horizon, Conns: conns}, stats, nil
}

// WritePacketTrace encodes a packet trace to w through a
// PacketEncoder.
func WritePacketTrace(w io.Writer, t *PacketTrace) error {
	enc, err := NewPacketEncoder(w, t.Name, t.Horizon, false)
	if err != nil {
		return err
	}
	return writeAll(enc, t.Packets)
}

// ReadPacketTrace decodes a packet trace from r in strict mode: the
// first malformed record aborts the decode.
func ReadPacketTrace(r io.Reader) (*PacketTrace, error) {
	t, _, err := ReadPacketTraceWith(r, DecodeOptions{})
	return t, err
}

// parsePacketLine decodes one record line of a packet trace; see
// parseConnLine for the zero-allocation field handling.
func parsePacketLine(f [][]byte, line int) (Packet, error) {
	var p Packet
	var err error
	if len(f) != 4 {
		return p, fmt.Errorf("trace: line %d: want 4 fields, got %d", line, len(f))
	}
	if p.Time, err = strconv.ParseFloat(string(f[0]), 64); err != nil {
		return p, fmt.Errorf("trace: line %d: time: %w", line, err)
	}
	if p.Size, err = strconv.Atoi(string(f[1])); err != nil {
		return p, fmt.Errorf("trace: line %d: size: %w", line, err)
	}
	p.Proto = matchProtocol(f[2])
	if p.ConnID, err = strconv.ParseInt(string(f[3]), 10, 64); err != nil {
		return p, fmt.Errorf("trace: line %d: connID: %w", line, err)
	}
	return p, nil
}

// ReadPacketTraceWith decodes a packet trace under the given options;
// see ReadConnTraceWith for the strict/lenient contract.
func ReadPacketTraceWith(r io.Reader, opts DecodeOptions) (*PacketTrace, DecodeStats, error) {
	hdr, pkts, stats, err := readAll(&NewPacketScanner(r, opts).scanner)
	if err != nil {
		return nil, stats, err
	}
	return &PacketTrace{Name: hdr.Name, Horizon: hdr.Horizon, Packets: pkts}, stats, nil
}

// nameField makes a trace name safe for the single-token header field.
func nameField(name string) string {
	if name == "" {
		return "unnamed"
	}
	return strings.ReplaceAll(name, " ", "_")
}

func parseHeader(line, magic string) (name string, horizon float64, err error) {
	f := strings.Fields(line)
	if len(f) != 3 || f[0] != magic {
		return "", 0, fmt.Errorf("trace: bad header %q (want %q)", line, magic+" <name> <horizon>")
	}
	horizon, err = strconv.ParseFloat(f[2], 64)
	if err != nil {
		return "", 0, fmt.Errorf("trace: bad horizon: %w", err)
	}
	return f[1], horizon, nil
}
