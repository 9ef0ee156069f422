// Package trace defines the two trace representations the paper's
// analyses consume, mirroring its two datasets: SYN/FIN-style
// connection traces (Table I) that record per-connection start time,
// duration, protocol and bytes transferred, and packet traces
// (Table II) that record individual packet arrivals. It also provides
// a line-oriented text codec so the cmd/ tools can exchange traces.
package trace

import (
	"sort"
)

// Protocol identifies the TCP application protocol of a connection,
// following the protocol breakdown of Section III.
type Protocol uint8

// Protocols analyzed by the paper.
const (
	Other Protocol = iota
	Telnet
	Rlogin
	X11
	FTP     // FTP session (control connection)
	FTPData // data connection spawned by an FTP session
	SMTP
	NNTP
	WWW
)

// protoNames is indexed by Protocol: the text encoders look a name up
// once per record.
var protoNames = [...]string{
	Other:   "OTHER",
	Telnet:  "TELNET",
	Rlogin:  "RLOGIN",
	X11:     "X11",
	FTP:     "FTP",
	FTPData: "FTPDATA",
	SMTP:    "SMTP",
	NNTP:    "NNTP",
	WWW:     "WWW",
}

// String returns the protocol's conventional upper-case name.
func (p Protocol) String() string {
	if int(p) < len(protoNames) {
		return protoNames[p]
	}
	return "OTHER"
}

// ParseProtocol inverts String. Unknown names map to Other.
func ParseProtocol(s string) Protocol { return matchProtocol([]byte(s)) }

// Protocols lists all named protocols in display order.
func Protocols() []Protocol {
	return []Protocol{Telnet, Rlogin, X11, FTP, FTPData, SMTP, NNTP, WWW, Other}
}

// Conn is one TCP connection as recoverable from a SYN/FIN trace:
// start time (seconds since trace start), duration, protocol, the
// bytes sent in each direction, and the FTP session that spawned it
// (for FTPDATA connections).
type Conn struct {
	Start     float64
	Duration  float64
	Proto     Protocol
	BytesOrig int64 // bytes sent by the connection originator
	BytesResp int64 // bytes sent by the responder
	SessionID int64 // owning session (FTP control connection), 0 if none
}

// End returns the connection's end time.
func (c Conn) End() float64 { return c.Start + c.Duration }

// Bytes returns the connection's total byte count in both directions.
func (c Conn) Bytes() int64 { return c.BytesOrig + c.BytesResp }

// ConnTrace is a SYN/FIN connection trace.
type ConnTrace struct {
	Name    string
	Horizon float64 // trace duration in seconds
	Conns   []Conn
}

// SortByStart orders the connections by start time in place.
func (t *ConnTrace) SortByStart() {
	sort.Slice(t.Conns, func(i, j int) bool { return t.Conns[i].Start < t.Conns[j].Start })
}

// Filter returns the connections of a given protocol, in trace order.
func (t *ConnTrace) Filter(p Protocol) []Conn {
	var out []Conn
	for _, c := range t.Conns {
		if c.Proto == p {
			out = append(out, c)
		}
	}
	return out
}

// StartTimes returns the sorted start times of connections of the
// given protocol — the arrival process Section III tests.
func (t *ConnTrace) StartTimes(p Protocol) []float64 {
	var out []float64
	for _, c := range t.Conns {
		if c.Proto == p {
			out = append(out, c.Start)
		}
	}
	sort.Float64s(out)
	return out
}

// TotalBytes sums the bytes of all connections of the given protocol.
func (t *ConnTrace) TotalBytes(p Protocol) int64 {
	var sum int64
	for _, c := range t.Conns {
		if c.Proto == p {
			sum += c.Bytes()
		}
	}
	return sum
}

// Packet is one packet arrival in a packet-level trace.
type Packet struct {
	Time   float64
	Size   int // payload bytes carried
	Proto  Protocol
	ConnID int64 // which connection the packet belongs to
}

// PacketTrace is a packet-level trace (the LBL PKT / DEC WRL analogs).
type PacketTrace struct {
	Name    string
	Horizon float64
	Packets []Packet
}

// SortByTime orders packets by arrival time in place.
func (t *PacketTrace) SortByTime() {
	sort.Slice(t.Packets, func(i, j int) bool { return t.Packets[i].Time < t.Packets[j].Time })
}

// Times returns the sorted arrival times of packets of the given
// protocol; with proto == Other it returns all packets' times.
func (t *PacketTrace) Times(proto Protocol) []float64 {
	var out []float64
	for _, p := range t.Packets {
		if proto == Other || p.Proto == proto {
			out = append(out, p.Time)
		}
	}
	sort.Float64s(out)
	return out
}

// AllTimes returns every packet's arrival time, sorted.
func (t *PacketTrace) AllTimes() []float64 { return t.Times(Other) }

// ByConn groups packet arrival times by connection id; times within
// each connection are sorted.
func (t *PacketTrace) ByConn() map[int64][]float64 {
	m := make(map[int64][]float64)
	for _, p := range t.Packets {
		m[p.ConnID] = append(m[p.ConnID], p.Time)
	}
	for _, ts := range m {
		sort.Float64s(ts)
	}
	return m
}

// Merge combines several packet traces into one, preserving per-packet
// fields and re-sorting by time. The horizon is the maximum of the
// inputs' horizons.
func Merge(name string, traces ...*PacketTrace) *PacketTrace {
	out := &PacketTrace{Name: name}
	for _, tr := range traces {
		if tr.Horizon > out.Horizon {
			out.Horizon = tr.Horizon
		}
		out.Packets = append(out.Packets, tr.Packets...)
	}
	out.SortByTime()
	return out
}
