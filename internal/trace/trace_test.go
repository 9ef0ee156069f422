package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func sampleConnTrace() *ConnTrace {
	return &ConnTrace{
		Name:    "LBL-test",
		Horizon: 3600,
		Conns: []Conn{
			{Start: 10.5, Duration: 100, Proto: Telnet, BytesOrig: 139, BytesResp: 2000},
			{Start: 5.25, Duration: 30, Proto: FTP, BytesOrig: 60, BytesResp: 80, SessionID: 1},
			{Start: 6, Duration: 2, Proto: FTPData, BytesOrig: 0, BytesResp: 1 << 20, SessionID: 1},
			{Start: 7, Duration: 1, Proto: FTPData, BytesOrig: 0, BytesResp: 512, SessionID: 1},
			{Start: 200, Duration: 10, Proto: SMTP, BytesOrig: 4096, BytesResp: 100},
		},
	}
}

func TestProtocolStringRoundTrip(t *testing.T) {
	for _, p := range Protocols() {
		if got := ParseProtocol(p.String()); got != p {
			t.Errorf("round trip %v -> %q -> %v", p, p.String(), got)
		}
	}
	if ParseProtocol("garbage") != Other {
		t.Error("unknown name should parse to Other")
	}
	if Protocol(200).String() != "OTHER" {
		t.Error("unknown protocol should render OTHER")
	}
}

func TestConnAccessors(t *testing.T) {
	c := Conn{Start: 2, Duration: 3, BytesOrig: 10, BytesResp: 20}
	if c.End() != 5 || c.Bytes() != 30 {
		t.Errorf("accessors: end %g bytes %d", c.End(), c.Bytes())
	}
}

func TestSortFilterStartTimes(t *testing.T) {
	tr := sampleConnTrace()
	tr.SortByStart()
	if !sort.SliceIsSorted(tr.Conns, func(i, j int) bool {
		return tr.Conns[i].Start < tr.Conns[j].Start
	}) {
		t.Error("not sorted")
	}
	ftpd := tr.Filter(FTPData)
	if len(ftpd) != 2 {
		t.Fatalf("filter found %d", len(ftpd))
	}
	starts := tr.StartTimes(FTPData)
	if len(starts) != 2 || starts[0] != 6 || starts[1] != 7 {
		t.Errorf("start times %v", starts)
	}
	if tr.TotalBytes(FTPData) != 1<<20+512 {
		t.Errorf("total bytes %d", tr.TotalBytes(FTPData))
	}
}

func TestConnTraceCodecRoundTrip(t *testing.T) {
	tr := sampleConnTrace()
	var buf bytes.Buffer
	if err := WriteConnTrace(&buf, tr, false); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadConnTrace(&buf, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch:\nwant %+v\ngot  %+v", tr, got)
	}
}

func TestConnTraceCodecRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		tr := &ConnTrace{Name: "rand trace", Horizon: 7200}
		for i := 0; i < int(n); i++ {
			tr.Conns = append(tr.Conns, Conn{
				Start:     rng.Float64() * 7200,
				Duration:  rng.Float64() * 100,
				Proto:     Protocols()[rng.Intn(len(Protocols()))],
				BytesOrig: rng.Int63n(1 << 30),
				BytesResp: rng.Int63n(1 << 30),
				SessionID: rng.Int63n(1000),
			})
		}
		var buf bytes.Buffer
		if err := WriteConnTrace(&buf, tr, false); err != nil {
			return false
		}
		got, _, err := ReadConnTrace(&buf, DecodeOptions{})
		if err != nil {
			return false
		}
		// Name with a space is sanitized on write.
		tr.Name = "rand_trace"
		return reflect.DeepEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPacketTraceCodecRoundTrip(t *testing.T) {
	tr := &PacketTrace{
		Name:    "PKT-test",
		Horizon: 7200,
		Packets: []Packet{
			{Time: 0.125, Size: 1, Proto: Telnet, ConnID: 4},
			{Time: 0.5, Size: 512, Proto: FTPData, ConnID: 9},
		},
	}
	var buf bytes.Buffer
	if err := WritePacketTrace(&buf, tr, false); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadPacketTrace(&buf, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch: %+v vs %+v", tr, got)
	}
}

func TestCodecErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad magic":    "#wrong x 1\n",
		"bad horizon":  "#conntrace x abc\n",
		"short fields": "#conntrace x 10\n1 2 TELNET 3\n",
		"bad float":    "#conntrace x 10\nxx 2 TELNET 3 4 5\n",
		"bad int":      "#conntrace x 10\n1 2 TELNET x 4 5\n",
	}
	for name, in := range cases {
		if _, _, err := ReadConnTrace(strings.NewReader(in), DecodeOptions{}); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, _, err := ReadPacketTrace(strings.NewReader("#pkttrace x 10\n1 2 TELNET\n"), DecodeOptions{}); err == nil {
		t.Error("short packet fields: expected error")
	}
	if _, _, err := ReadPacketTrace(strings.NewReader("#pkttrace x 10\n1 zz TELNET 3\n"), DecodeOptions{}); err == nil {
		t.Error("bad packet size: expected error")
	}
}

func TestCodecSkipsCommentsAndBlanks(t *testing.T) {
	in := "#conntrace x 10\n# a comment\n\n1 2 TELNET 3 4 5\n"
	tr, _, err := ReadConnTrace(strings.NewReader(in), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Conns) != 1 {
		t.Errorf("conns %d", len(tr.Conns))
	}
}

func TestPacketTraceTimesAndByConn(t *testing.T) {
	tr := &PacketTrace{Horizon: 10, Packets: []Packet{
		{Time: 3, Proto: Telnet, ConnID: 1},
		{Time: 1, Proto: Telnet, ConnID: 1},
		{Time: 2, Proto: FTPData, ConnID: 2},
	}}
	all := tr.AllTimes()
	if !sort.Float64sAreSorted(all) || len(all) != 3 {
		t.Errorf("all times %v", all)
	}
	tel := tr.Times(Telnet)
	if len(tel) != 2 || tel[0] != 1 {
		t.Errorf("telnet times %v", tel)
	}
	byConn := tr.ByConn()
	if len(byConn) != 2 || len(byConn[1]) != 2 || byConn[1][0] != 1 {
		t.Errorf("by conn %v", byConn)
	}
}

func TestMerge(t *testing.T) {
	a := &PacketTrace{Name: "a", Horizon: 5, Packets: []Packet{{Time: 4}}}
	b := &PacketTrace{Name: "b", Horizon: 9, Packets: []Packet{{Time: 1}, {Time: 7}}}
	m := Merge("ab", a, b)
	if m.Horizon != 9 || len(m.Packets) != 3 {
		t.Fatalf("merge %+v", m)
	}
	if m.Packets[0].Time != 1 || m.Packets[2].Time != 7 {
		t.Errorf("merge order %+v", m.Packets)
	}
}
