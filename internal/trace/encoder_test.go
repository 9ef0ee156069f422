package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func sampleConns() []Conn {
	return []Conn{
		{Start: 0.125, Duration: 3.5, Proto: Telnet, BytesOrig: 100, BytesResp: 2048, SessionID: 1},
		{Start: 1.75, Duration: 0.0625, Proto: FTPData, BytesOrig: 0, BytesResp: 1 << 20, SessionID: 2},
		{Start: 2.5, Duration: 10, Proto: WWW, BytesOrig: 345, BytesResp: 6789, SessionID: 3},
	}
}

func samplePackets() []Packet {
	return []Packet{
		{Time: 0.25, Size: 512, Proto: Telnet, ConnID: 7},
		{Time: 0.5, Size: 1460, Proto: FTPData, ConnID: 8},
		{Time: 1.125, Size: 40, Proto: SMTP, ConnID: 9},
	}
}

// The text format is pinned to literal bytes, so a change to the one
// formatter shows up here rather than silently in every trace file.
// The batch writer and the streaming encoder share that formatter;
// both must produce exactly these bytes. The extra records cover
// exponent forms, an unknown protocol, negative and extreme integers,
// and the unnamed-trace header.
const (
	pinnedConnText = "#conntrace enc_test 3600\n" +
		"0.125 3.5 TELNET 100 2048 1\n" +
		"1.75 0.0625 FTPDATA 0 1048576 2\n" +
		"2.5 10 WWW 345 6789 3\n" +
		"1e-07 1.5e+21 OTHER -3 9223372036854775807 -1\n"
	pinnedPacketText = "#pkttrace unnamed 0.5\n" +
		"0.25 512 TELNET 7\n" +
		"0.5 1460 FTPDATA 8\n" +
		"1.125 40 SMTP 9\n" +
		"1.234567890625e+08 0 WWW -7\n"
)

func TestConnEncoderTextMatchesBatchWriter(t *testing.T) {
	conns := append(sampleConns(), Conn{Start: 1e-07, Duration: 1.5e21, Proto: Protocol(42), BytesOrig: -3, BytesResp: 1<<63 - 1, SessionID: -1})
	tr := &ConnTrace{Name: "enc test", Horizon: 3600, Conns: conns}
	var batch bytes.Buffer
	if err := WriteConnTrace(&batch, tr, false); err != nil {
		t.Fatal(err)
	}
	if got := batch.String(); got != pinnedConnText {
		t.Fatalf("batch text:\n%s\nwant pinned:\n%s", got, pinnedConnText)
	}
	var streamed bytes.Buffer
	enc, err := NewConnEncoder(&streamed, tr.Name, tr.Horizon, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Conns {
		if err := enc.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := streamed.String(); got != pinnedConnText {
		t.Fatalf("streamed text:\n%s\nwant pinned:\n%s", got, pinnedConnText)
	}
	if enc.Count() != int64(len(tr.Conns)) {
		t.Fatalf("Count = %d, want %d", enc.Count(), len(tr.Conns))
	}
}

func TestPacketEncoderTextMatchesBatchWriter(t *testing.T) {
	pkts := append(samplePackets(), Packet{Time: 123456789.0625, Size: 0, Proto: WWW, ConnID: -7})
	tr := &PacketTrace{Horizon: 0.5, Packets: pkts}
	var batch bytes.Buffer
	if err := WritePacketTrace(&batch, tr, false); err != nil {
		t.Fatal(err)
	}
	if got := batch.String(); got != pinnedPacketText {
		t.Fatalf("batch text:\n%s\nwant pinned:\n%s", got, pinnedPacketText)
	}
	var streamed bytes.Buffer
	enc, err := NewPacketEncoder(&streamed, tr.Name, tr.Horizon, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Packets {
		if err := enc.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := streamed.String(); got != pinnedPacketText {
		t.Fatalf("streamed text:\n%s\nwant pinned:\n%s", got, pinnedPacketText)
	}
}

// A streamed binary trace decodes through the existing scanners with
// the Streamed header flag set and records running to EOF.
func TestConnEncoderBinaryStreamedRoundTrip(t *testing.T) {
	conns := sampleConns()
	var buf bytes.Buffer
	enc, err := NewConnEncoder(&buf, "stream", 3600, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		if err := enc.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	sc := NewConnBinaryScanner(bytes.NewReader(buf.Bytes()), DecodeOptions{})
	hdr := sc.Header()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !hdr.Streamed || hdr.Expected != 0 || !hdr.Binary || hdr.Name != "stream" || hdr.Horizon != 3600 {
		t.Fatalf("header = %+v, want streamed binary name=stream horizon=3600", hdr)
	}
	var got []Conn
	for sc.Scan() {
		got = append(got, sc.Conn())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(conns) {
		t.Fatalf("decoded %d records, want %d", len(got), len(conns))
	}
	for i := range conns {
		if got[i] != conns[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], conns[i])
		}
	}
}

func TestPacketEncoderBinaryStreamedRoundTrip(t *testing.T) {
	pkts := samplePackets()
	var buf bytes.Buffer
	enc, err := NewPacketEncoder(&buf, "stream", 60, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := enc.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := NewPacketScanner(bytes.NewReader(buf.Bytes()), DecodeOptions{})
	var got []Packet
	for sc.Scan() {
		got = append(got, sc.Packet())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if hdr := sc.Header(); !hdr.Streamed {
		t.Fatalf("header not streamed: %+v", hdr)
	}
	if len(got) != len(pkts) {
		t.Fatalf("decoded %d records, want %d", len(got), len(pkts))
	}
	for i := range pkts {
		if got[i] != pkts[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], pkts[i])
		}
	}
}

// ScanBatch over a streamed binary trace must agree with Scan,
// including the clean EOF at a record boundary mid-batch.
func TestStreamedBinaryScanBatch(t *testing.T) {
	conns := sampleConns()
	var buf bytes.Buffer
	enc, err := NewConnEncoder(&buf, "stream", 3600, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		if err := enc.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, batchSize := range []int{1, 2, 3, 8} {
		sc := NewConnBinaryScanner(bytes.NewReader(buf.Bytes()), DecodeOptions{})
		var got []Conn
		out := make([]Conn, batchSize)
		for {
			n, err := sc.ScanBatch(out)
			got = append(got, out[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("batch %d: %v", batchSize, err)
			}
		}
		if len(got) != len(conns) {
			t.Fatalf("batch %d: decoded %d records, want %d", batchSize, len(got), len(conns))
		}
		for i := range conns {
			if got[i] != conns[i] {
				t.Fatalf("batch %d: record %d = %+v, want %+v", batchSize, i, got[i], conns[i])
			}
		}
	}
}

// A partial final record in a streamed binary trace is an error in
// strict mode and a single accounted skip in lenient mode — there is
// no promised count to charge a shortfall against.
func TestStreamedBinaryTruncatedRecord(t *testing.T) {
	conns := sampleConns()
	var buf bytes.Buffer
	enc, err := NewConnEncoder(&buf, "stream", 3600, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		if err := enc.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-20] // mid-record

	sc := NewConnBinaryScanner(bytes.NewReader(cut), DecodeOptions{})
	n := 0
	for sc.Scan() {
		n++
	}
	if err := sc.Err(); err == nil {
		t.Fatal("strict scan of truncated streamed trace: want error, got nil")
	}
	if n != len(conns)-1 {
		t.Fatalf("strict: decoded %d before error, want %d", n, len(conns)-1)
	}

	sc = NewConnBinaryScanner(bytes.NewReader(cut), DecodeOptions{Lenient: true})
	n = 0
	for sc.Scan() {
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("lenient scan: %v", err)
	}
	st := sc.Stats()
	if n != len(conns)-1 || st.RecordsSkipped != 1 {
		t.Fatalf("lenient: decoded %d skipped %d, want %d and 1", n, st.RecordsSkipped, len(conns)-1)
	}

	// Same through ScanBatch.
	sc = NewConnBinaryScanner(bytes.NewReader(cut), DecodeOptions{Lenient: true})
	out := make([]Conn, 8)
	total := 0
	for {
		k, err := sc.ScanBatch(out)
		total += k
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("lenient batch: %v", err)
		}
	}
	if total != len(conns)-1 || sc.Stats().RecordsSkipped != 1 {
		t.Fatalf("lenient batch: decoded %d skipped %d, want %d and 1", total, sc.Stats().RecordsSkipped, len(conns)-1)
	}
}

// MaxRecords still bounds a streamed trace: a stream that keeps going
// past the budget errors rather than consuming unbounded input, while
// one that ends exactly at the budget scans cleanly.
func TestStreamedBinaryMaxRecords(t *testing.T) {
	conns := sampleConns()
	encode := func() []byte {
		var buf bytes.Buffer
		enc, err := NewConnEncoder(&buf, "stream", 3600, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range conns {
			if err := enc.Write(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	data := encode()

	sc := NewConnBinaryScanner(bytes.NewReader(data), DecodeOptions{MaxRecords: 2})
	for sc.Scan() {
	}
	if err := sc.Err(); err == nil || !strings.Contains(err.Error(), "record limit") {
		t.Fatalf("over-budget streamed scan: err = %v, want record limit error", err)
	}

	sc = NewConnBinaryScanner(bytes.NewReader(data), DecodeOptions{MaxRecords: len(conns)})
	n := 0
	for sc.Scan() {
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("at-budget streamed scan: %v", err)
	}
	if n = sc.Stats().RecordsKept; n != len(conns) {
		t.Fatalf("at-budget: kept %d, want %d", n, len(conns))
	}

	// ScanBatch path hits the same limit.
	sc = NewConnBinaryScanner(bytes.NewReader(data), DecodeOptions{MaxRecords: 2})
	out := make([]Conn, 8)
	var berr error
	for {
		_, err := sc.ScanBatch(out)
		if err != nil {
			berr = err
			break
		}
	}
	if berr == io.EOF || berr == nil || !strings.Contains(berr.Error(), "record limit") {
		t.Fatalf("over-budget batch: err = %v, want record limit error", berr)
	}
}

// An empty streamed trace (header, zero records) is valid.
func TestStreamedBinaryEmpty(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewConnEncoder(&buf, "empty", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := NewConnBinaryScanner(bytes.NewReader(buf.Bytes()), DecodeOptions{})
	if sc.Scan() {
		t.Fatal("Scan returned true on empty streamed trace")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}
