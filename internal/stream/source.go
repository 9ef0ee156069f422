package stream

import (
	"bufio"
	"io"

	"wantraffic/internal/trace"
)

// Source is the one place trace records become observations. It
// sniffs a stream's kind (connection or packet) and encoding (text or
// binary), reads the header when opened, and then yields derived Obs
// batch by batch. Every consumer — the sharded Session, the
// distributed worker, the observatory's replayer — reads through it,
// so arrival time, interarrival gap, volume and protocol are derived
// identically everywhere.
//
// A Source is not safe for concurrent use.
type Source struct {
	hdr     trace.Header
	conns   *trace.ConnScanner
	pkts    *trace.PacketScanner
	connBuf []trace.Conn
	pktBuf  []trace.Packet
	prev    float64 // previous record's time, for the gap chain
	started bool
}

// NewSource opens a trace stream of either kind and either encoding.
// The header (kind, name, horizon, pipeline ID) is read before it
// returns, so Header is valid before the first record; a header that
// does not parse is an error here.
func NewSource(r io.Reader, dopts trace.DecodeOptions) (*Source, error) {
	br := bufio.NewReader(r) // r itself when it is already a bufio.Reader
	kind, binary, err := trace.SniffHeader(br)
	if err != nil {
		return nil, err
	}
	s := &Source{}
	switch {
	case kind == trace.KindConn && binary:
		s.conns = trace.NewConnBinaryScanner(br, dopts)
	case kind == trace.KindConn:
		s.conns = trace.NewConnScanner(br, dopts)
	case binary:
		s.pkts = trace.NewPacketBinaryScanner(br, dopts)
	default:
		s.pkts = trace.NewPacketScanner(br, dopts)
	}
	if s.conns != nil {
		s.hdr, err = s.conns.Header(), s.conns.Err()
	} else {
		s.hdr, err = s.pkts.Header(), s.pkts.Err()
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Header returns the trace header read at open.
func (s *Source) Header() trace.Header { return s.hdr }

// SketchKind names the Sketch kind that summarizes this trace
// (ConnSketch or PacketSketch).
func (s *Source) SketchKind() string {
	if s.conns != nil {
		return ConnSketch
	}
	return PacketSketch
}

// Stats returns the decode accounting so far.
func (s *Source) Stats() trace.DecodeStats {
	if s.conns != nil {
		return s.conns.Stats()
	}
	return s.pkts.Stats()
}

// Next decodes up to len(out) records and writes their observations
// to out[:n], under ScanBatch's contract: a short n comes only at the
// end of the stream; io.EOF marks the clean end and may come with
// final records; any other error comes with the n good records decoded
// before it, and is sticky. The gap chain carries across calls: only
// the first record of the stream has HasGap false.
//
// A connection yields its start time, total bytes, duration and
// protocol; a packet its arrival time, payload size and protocol.
func (s *Source) Next(out []Obs) (n int, err error) {
	if s.conns != nil {
		recs := grow(&s.connBuf, len(out))
		n, err = s.conns.ScanBatch(recs)
		for i, c := range recs[:n] {
			out[i] = Obs{Time: c.Start, Value: float64(c.Bytes()), Duration: c.Duration, Proto: c.Proto}
		}
	} else {
		recs := grow(&s.pktBuf, len(out))
		n, err = s.pkts.ScanBatch(recs)
		for i, p := range recs[:n] {
			out[i] = Obs{Time: p.Time, Value: float64(p.Size), Proto: p.Proto}
		}
	}
	for i := range out[:n] {
		if s.started {
			out[i].Gap, out[i].HasGap = out[i].Time-s.prev, true
		}
		s.prev, s.started = out[i].Time, true
	}
	return n, err
}

// grow returns (*buf)[:n], reallocating only when the buffer is too
// small, so a warm Source decodes without allocating.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}
