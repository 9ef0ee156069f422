package trace

import (
	"bytes"
	"strings"
	"testing"
)

// Pipeline-ID framing: a live producer stamps the pipeline identity
// into the stream (text: "#pipeline <id>" after the header; binary:
// the streamedPipelineCount sentinel plus an ID block), every scanner
// surfaces it in Header.PipelineID, and streams without the framing
// decode exactly as before.

func TestPipelineIDTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewConnEncoderWith(&buf, "pipe-test", 100, false, EncoderOptions{PipelineID: "p12345678"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sampleConnTrace().Conns {
		if err := enc.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\n#pipeline p12345678\n") {
		t.Fatalf("text framing missing pipeline comment:\n%s", buf.String())
	}

	sc := NewConnScanner(bytes.NewReader(buf.Bytes()), DecodeOptions{})
	hdr := sc.Header()
	if hdr.PipelineID != "p12345678" {
		t.Errorf("PipelineID = %q, want p12345678", hdr.PipelineID)
	}
	if hdr.Name != "pipe-test" || hdr.Horizon != 100 {
		t.Errorf("header corrupted: %+v", hdr)
	}
	n := 0
	for sc.Scan() {
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := len(sampleConnTrace().Conns); n != want {
		t.Errorf("decoded %d records, want %d", n, want)
	}
}

func TestPipelineIDBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewPacketEncoderWith(&buf, "pkt pipe", 50, true, EncoderOptions{PipelineID: "auto-1"})
	if err != nil {
		t.Fatal(err)
	}
	pkts := []Packet{
		{Time: 0.5, Size: 40, Proto: Telnet, ConnID: 1},
		{Time: 1.5, Size: 1500, Proto: FTPData, ConnID: 2},
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
	hdr := sc.Header()
	if hdr.PipelineID != "auto-1" {
		t.Errorf("PipelineID = %q, want auto-1", hdr.PipelineID)
	}
	if hdr.Name != "pkt pipe" || !hdr.Streamed {
		t.Errorf("header corrupted: %+v", hdr)
	}
	n := 0
	for sc.Scan() {
		if got := sc.Packet(); got != pkts[n] {
			t.Errorf("record %d = %+v, want %+v", n, got, pkts[n])
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(pkts) {
		t.Errorf("decoded %d records, want %d", n, len(pkts))
	}
}

func TestPipelineIDAbsentByDefault(t *testing.T) {
	// Without a pipeline ID the encoders' output is byte-identical to
	// the pre-framing format: no comment line, plain StreamedCount.
	var plain, withOpts bytes.Buffer
	e1, err := NewConnEncoder(&plain, "x", 10, true)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewConnEncoderWith(&withOpts, "x", 10, true, EncoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := sampleConnTrace().Conns[0]
	if err := e1.Write(c); err != nil {
		t.Fatal(err)
	}
	if err := e2.Write(c); err != nil {
		t.Fatal(err)
	}
	e1.Flush()
	e2.Flush()
	if !bytes.Equal(plain.Bytes(), withOpts.Bytes()) {
		t.Error("empty EncoderOptions changed the encoding")
	}
	sc := NewConnBinaryScanner(bytes.NewReader(plain.Bytes()), DecodeOptions{})
	if hdr := sc.Header(); hdr.PipelineID != "" {
		t.Errorf("PipelineID = %q on an unframed stream", hdr.PipelineID)
	}
}

func TestPipelineCommentSkippedAsCommentMidStream(t *testing.T) {
	// A #pipeline line that is not directly after the header reads as
	// an ordinary comment: ignored, not captured.
	in := "#conntrace x 10\n1 1 TELNET 1 1 1\n#pipeline late\n2 1 TELNET 1 1 1\n"
	sc := NewConnScanner(strings.NewReader(in), DecodeOptions{})
	n := 0
	for sc.Scan() {
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("decoded %d records, want 2", n)
	}
	if id := sc.Header().PipelineID; id != "" {
		t.Errorf("mid-stream comment captured as PipelineID %q", id)
	}
}

func TestPipelinePeekPreservesFirstRecord(t *testing.T) {
	// The header peek stashes a non-pipeline line; every record must
	// still come back, in order, through both Scan and ScanBatch.
	in := "#conntrace x 10\n1 1 TELNET 1 1 1\n2 2 SMTP 2 2 2\n3 3 NNTP 3 3 3\n"
	sc := NewConnScanner(strings.NewReader(in), DecodeOptions{})
	var starts []float64
	for sc.Scan() {
		starts = append(starts, sc.Conn().Start)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(starts) != 3 || starts[0] != 1 || starts[1] != 2 || starts[2] != 3 {
		t.Errorf("records out of order or missing: %v", starts)
	}

	sc2 := NewConnScanner(strings.NewReader(in), DecodeOptions{})
	buf := make([]Conn, 8)
	n, err := sc2.ScanBatch(buf)
	if n != 3 {
		t.Errorf("ScanBatch returned %d records (err %v), want 3", n, err)
	}
	if buf[0].Start != 1 || buf[1].Start != 2 || buf[2].Start != 3 {
		t.Errorf("batch records wrong: %+v", buf[:n])
	}
}
