package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryConnRoundTrip(t *testing.T) {
	tr := sampleConnTrace()
	var buf bytes.Buffer
	if err := WriteConnTrace(&buf, tr, true); err != nil {
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

func TestBinaryPacketRoundTrip(t *testing.T) {
	tr := &PacketTrace{
		Name:    "PKT binary test", // spaces are fine in binary
		Horizon: 7200,
		Packets: []Packet{
			{Time: 0.125, Size: 1, Proto: Telnet, ConnID: 4},
			{Time: 3600.75, Size: 512, Proto: FTPData, ConnID: -2},
		},
	}
	var buf bytes.Buffer
	if err := WritePacketTrace(&buf, tr, true); err != nil {
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

func TestBinaryRandomRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8, nameRaw []byte) bool {
		tr := &ConnTrace{Name: string(nameRaw), Horizon: rng.Float64() * 1e6}
		for i := 0; i < int(n); i++ {
			tr.Conns = append(tr.Conns, Conn{
				Start:     rng.Float64() * 1e6,
				Duration:  rng.Float64() * 1e4,
				Proto:     Protocols()[rng.Intn(len(Protocols()))],
				BytesOrig: rng.Int63(),
				BytesResp: rng.Int63(),
				SessionID: rng.Int63() - rng.Int63(),
			})
		}
		var buf bytes.Buffer
		if err := WriteConnTrace(&buf, tr, true); err != nil {
			return false
		}
		got, _, err := ReadConnTrace(&buf, DecodeOptions{})
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	tr := &ConnTrace{Name: "", Horizon: 0}
	var buf bytes.Buffer
	if err := WriteConnTrace(&buf, tr, true); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadConnTrace(&buf, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "" || len(got.Conns) != 0 {
		t.Errorf("empty trace round trip %+v", got)
	}
}

func TestBinaryErrors(t *testing.T) {
	// Wrong magic.
	if _, _, err := ReadConnTrace(strings.NewReader("XXXXgarbage"), DecodeOptions{}); err == nil {
		t.Error("bad magic accepted")
	}
	// Cross-kind magic: packet data fed to the conn reader.
	var buf bytes.Buffer
	if err := WritePacketTrace(&buf, &PacketTrace{Name: "x"}, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadConnTrace(&buf, DecodeOptions{}); err == nil {
		t.Error("packet magic accepted by conn reader")
	}
	// Truncated stream.
	var buf2 bytes.Buffer
	tr := sampleConnTrace()
	if err := WriteConnTrace(&buf2, tr, true); err != nil {
		t.Fatal(err)
	}
	cut := buf2.Bytes()[:buf2.Len()-5]
	if _, _, err := ReadConnTrace(bytes.NewReader(cut), DecodeOptions{}); err == nil {
		t.Error("truncated stream accepted")
	}
	// Empty input.
	if _, _, err := ReadPacketTrace(strings.NewReader(""), DecodeOptions{}); err == nil {
		t.Error("empty input accepted")
	}
	// A header cut right after the magic fails with a bare io.EOF,
	// which must not read as the clean end of an empty trace.
	if _, _, err := ReadConnTrace(strings.NewReader("WCT1"), DecodeOptions{}); err == nil {
		t.Error("conn header cut after the magic accepted")
	}
	if _, _, err := ReadPacketTrace(strings.NewReader("WPT1"), DecodeOptions{}); err == nil {
		t.Error("packet header cut after the magic accepted")
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	// Realistic traces carry full-precision start times and durations,
	// which the text codec prints at up to ~17 significant digits; the
	// fixed 41-byte binary records are smaller there.
	rng := rand.New(rand.NewSource(9))
	tr := &ConnTrace{Name: "size", Horizon: 86400}
	for i := 0; i < 2000; i++ {
		tr.Conns = append(tr.Conns, Conn{
			Start:     rng.Float64() * 86400,
			Duration:  rng.Float64() * 1000,
			Proto:     FTPData,
			BytesOrig: rng.Int63n(1 << 40),
			BytesResp: rng.Int63n(1 << 40),
			SessionID: rng.Int63n(1 << 40),
		})
	}
	var txt, bin bytes.Buffer
	if err := WriteConnTrace(&txt, tr, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteConnTrace(&bin, tr, true); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len() {
		t.Errorf("binary %d bytes not smaller than text %d", bin.Len(), txt.Len())
	}
}

func BenchmarkBinaryConnCodec(b *testing.B) {
	tr := sampleConnTrace()
	for i := 0; i < 10; i++ {
		tr.Conns = append(tr.Conns, tr.Conns...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteConnTrace(&buf, tr, true); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadConnTrace(&buf, DecodeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTextConnCodec(b *testing.B) {
	tr := sampleConnTrace()
	for i := 0; i < 10; i++ {
		tr.Conns = append(tr.Conns, tr.Conns...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteConnTrace(&buf, tr, false); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadConnTrace(&buf, DecodeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
