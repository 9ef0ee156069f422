package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Each record kind has two encodings: a line-oriented text format,
// convenient for inspection and interchange, and the compact
// fixed-width binary format in binary.go. Which one a stream uses is
// this package's decision alone. The readers (ReadConnTrace,
// ReadPacketTrace and the scanners behind them) tell the encodings
// apart by the binary magic; the writers take a flag and format every
// record through the streaming encoders (encoder.go), so each wire
// format has one formatter and one decode loop.
//
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

// format describes one record kind in both encodings.
type format[T any] struct {
	kind Kind
	// text is the text header's magic; parse decodes one record line.
	text  string
	parse func(f [][]byte, line int) (T, error)
	// magic opens the binary encoding, whose records are size bytes
	// wide; decode reads one.
	magic  [4]byte
	size   int
	decode func(rec []byte) T
}

var (
	connFormat = format[Conn]{kind: KindConn, text: "#conntrace", parse: parseConnLine,
		magic: connMagic, size: connRecordSize, decode: decodeConnRecord}
	packetFormat = format[Packet]{kind: KindPacket, text: "#pkttrace", parse: parsePacketLine,
		magic: packetMagic, size: packetRecordSize, decode: decodePacketRecord}
)

// ReadConnTrace decodes a connection trace in either encoding. Input
// that starts with the binary magic is decoded as binary, anything
// else as text. In strict mode (the zero DecodeOptions) the first
// malformed record aborts the decode; in lenient mode malformed
// records are skipped and accounted in the returned DecodeStats.
// Header errors and resource limits (line length, record count) abort
// in both modes. It materializes NewConnScanner's records; streaming
// consumers that must not hold the full trace use the scanner
// directly.
func ReadConnTrace(r io.Reader, opts DecodeOptions) (*ConnTrace, DecodeStats, error) {
	hdr, conns, stats, err := readAll(&NewConnScanner(r, opts).scanner)
	if err != nil {
		return nil, stats, err
	}
	return &ConnTrace{Name: hdr.Name, Horizon: hdr.Horizon, Conns: conns}, stats, nil
}

// ReadPacketTrace decodes a packet trace in either encoding; see
// ReadConnTrace for the strict/lenient contract.
func ReadPacketTrace(r io.Reader, opts DecodeOptions) (*PacketTrace, DecodeStats, error) {
	hdr, pkts, stats, err := readAll(&NewPacketScanner(r, opts).scanner)
	if err != nil {
		return nil, stats, err
	}
	return &PacketTrace{Name: hdr.Name, Horizon: hdr.Horizon, Packets: pkts}, stats, nil
}

// WriteConnTrace encodes a connection trace to w, in the binary format
// when binary is set and in the text format otherwise. It writes
// through a ConnEncoder; the binary header carries the record count.
func WriteConnTrace(w io.Writer, t *ConnTrace, binary bool) error {
	e := &ConnEncoder{}
	if err := e.enc.start(w, connFormat.text, connFormat.magic, t.Name, t.Horizon, binary, uint64(len(t.Conns)), EncoderOptions{}); err != nil {
		return err
	}
	return writeAll(e, t.Conns)
}

// WritePacketTrace encodes a packet trace to w; see WriteConnTrace.
func WritePacketTrace(w io.Writer, t *PacketTrace, binary bool) error {
	e := &PacketEncoder{}
	if err := e.enc.start(w, packetFormat.text, packetFormat.magic, t.Name, t.Horizon, binary, uint64(len(t.Packets)), EncoderOptions{}); err != nil {
		return err
	}
	return writeAll(e, t.Packets)
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

// matchProtocol is the protocol name table read backwards: the exact
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
