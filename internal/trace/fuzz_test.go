package trace

import (
	"bytes"
	"strings"
	"testing"
)

// tamperedTextSeeds are pinned regression inputs for the text codec:
// header tampering (wrong magic, missing fields, bad horizon) and
// field overflow (values exceeding int64/float64 ranges).
var tamperedConnSeeds = []string{
	"#conntrac x 3600\n1 2 TELNET 3 4 5\n",                      // magic one byte short
	"#conntrace 3600\n",                                         // missing name field
	"#conntrace x y 3600\n",                                     // extra header field
	"#conntrace x 1e999\n",                                      // horizon overflows float64
	"#conntrace x NaN\n1 2 TELNET 3 4 5\n",                      // NaN horizon (accepted: %g round-trips it)
	"#conntrace x 10\n1 2 TELNET 9223372036854775808 4 5\n",     // bytesOrig > MaxInt64
	"#conntrace x 10\n1 2 TELNET 3 4 99999999999999999999999\n", // sessionID overflow
	"#conntrace x 10\n1e999 2 TELNET 3 4 5\n",                   // start overflows float64
}

var tamperedPacketSeeds = []string{
	"#pkttrace\n",                                        // header with no fields
	"#pkttracex p 60\n1 512 TELNET 1\n",                  // corrupted magic
	"#pkttrace p 1e999\n",                                // horizon overflow
	"#pkttrace p 60\n1 99999999999999999999 TELNET 1\n",  // size overflows int
	"#pkttrace p 60\n1 512 TELNET 9223372036854775808\n", // connID > MaxInt64
	"#pkttrace p 60\n1e999 512 TELNET 1\n",               // time overflow
}

// fuzzConnInvariants runs the strict/lenient checks on one input to
// ReadConnTrace, whichever encoding it carries: strict accepts ⇒ the
// trace re-encodes in the input's encoding and reads back; lenient
// never errors on record damage (only header/resource errors) and its
// stats account for every record; strict accepts ⇒ lenient skips
// nothing.
func fuzzConnInvariants(t *testing.T, in []byte) {
	tr, _, err := ReadConnTrace(bytes.NewReader(in), DecodeOptions{})
	if err == nil {
		var buf bytes.Buffer
		if err := WriteConnTrace(&buf, tr, bytes.HasPrefix(in, connMagic[:])); err != nil {
			t.Fatalf("accepted trace failed to encode: %v", err)
		}
		if _, _, err := ReadConnTrace(&buf, DecodeOptions{}); err != nil {
			t.Fatalf("re-encoded trace failed to parse: %v", err)
		}
	}
	ltr, stats, lerr := ReadConnTrace(bytes.NewReader(in), DecodeOptions{Lenient: true})
	if lerr != nil {
		return // header or resource-limit error: allowed in both modes
	}
	if stats.RecordsKept != len(ltr.Conns) {
		t.Fatalf("lenient stats claim %d kept, trace holds %d", stats.RecordsKept, len(ltr.Conns))
	}
	if err == nil && stats.RecordsSkipped != 0 {
		t.Fatalf("strict accepted but lenient skipped %d records", stats.RecordsSkipped)
	}
}

// fuzzPacketInvariants mirrors fuzzConnInvariants for ReadPacketTrace.
func fuzzPacketInvariants(t *testing.T, in []byte) {
	tr, _, err := ReadPacketTrace(bytes.NewReader(in), DecodeOptions{})
	if err == nil {
		var buf bytes.Buffer
		if err := WritePacketTrace(&buf, tr, bytes.HasPrefix(in, packetMagic[:])); err != nil {
			t.Fatalf("accepted trace failed to encode: %v", err)
		}
		if _, _, err := ReadPacketTrace(&buf, DecodeOptions{}); err != nil {
			t.Fatalf("re-encoded trace failed to parse: %v", err)
		}
	}
	ltr, stats, lerr := ReadPacketTrace(bytes.NewReader(in), DecodeOptions{Lenient: true})
	if lerr != nil {
		return
	}
	if stats.RecordsKept != len(ltr.Packets) {
		t.Fatalf("lenient stats claim %d kept, trace holds %d", stats.RecordsKept, len(ltr.Packets))
	}
	if err == nil && stats.RecordsSkipped != 0 {
		t.Fatalf("strict accepted but lenient skipped %d records", stats.RecordsSkipped)
	}
}

// encodeSeed is a fuzz seed written by one of the batch writers.
func encodeSeed(f *testing.F, write func(*bytes.Buffer) error) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// seedPacketTrace is the one-record packet trace the packet fuzz
// targets start from.
var seedPacketTrace = &PacketTrace{Name: "p", Horizon: 10, Packets: []Packet{{Time: 1, Size: 2, Proto: SMTP, ConnID: 3}}}

// FuzzReadConnTrace checks ReadConnTrace from a text corpus: it never
// panics, any trace it accepts round-trips through the writer, and
// lenient mode accounts for every skipped record. The last two seeds
// carry the binary encoding's magic and the other kind's.
func FuzzReadConnTrace(f *testing.F) {
	f.Add("#conntrace x 3600\n1 2 TELNET 3 4 5\n")
	f.Add("#conntrace y 10\n")
	f.Add("garbage")
	f.Add("#conntrace z 1e9\n0.5 0 FTPDATA 0 1048576 42\n# comment\n\n1 1 WWW 1 1 1\n")
	for _, s := range tamperedConnSeeds {
		f.Add(s)
	}
	f.Add(string(encodeSeed(f, func(b *bytes.Buffer) error { return WriteConnTrace(b, sampleConnTrace(), true) })))
	f.Add("#pkttrace p 60\n1 512 TELNET 1\n")
	f.Fuzz(func(t *testing.T, in string) { fuzzConnInvariants(t, []byte(in)) })
}

// FuzzReadPacketTrace mirrors FuzzReadConnTrace for packet traces.
func FuzzReadPacketTrace(f *testing.F) {
	f.Add("#pkttrace p 60\n1 512 TELNET 1\n2 40 SMTP 2\n")
	f.Add("#pkttrace q 0\n")
	f.Add("not a trace")
	for _, s := range tamperedPacketSeeds {
		f.Add(s)
	}
	f.Add(string(encodeSeed(f, func(b *bytes.Buffer) error { return WritePacketTrace(b, seedPacketTrace, true) })))
	f.Add("#conntrace x 3600\n1 2 TELNET 3 4 5\n")
	f.Fuzz(func(t *testing.T, in string) { fuzzPacketInvariants(t, []byte(in)) })
}

// TestTextTamperedSeedsPinned pins the tampered corpus outside the
// fuzz harness: header damage must error in both modes; field
// overflow must error strictly and be skipped-with-accounting
// leniently.
func TestTextTamperedSeedsPinned(t *testing.T) {
	for i, in := range tamperedConnSeeds {
		_, _, err := ReadConnTrace(strings.NewReader(in), DecodeOptions{})
		lt, stats, lerr := ReadConnTrace(strings.NewReader(in), DecodeOptions{Lenient: true})
		headerOnly := strings.Count(in, "\n") <= 1 || !strings.HasPrefix(in, "#conntrace ")
		switch {
		case i == 4: // NaN horizon is representable and round-trips
			if err != nil || lerr != nil {
				t.Errorf("seed %d: NaN horizon should parse: %v / %v", i, err, lerr)
			}
		case headerOnly:
			if err == nil || lerr == nil {
				t.Errorf("conn seed %d: header damage accepted (strict %v, lenient %v)", i, err, lerr)
			}
		default:
			if err == nil {
				t.Errorf("conn seed %d: strict accepted overflow record", i)
			}
			if lerr != nil {
				t.Errorf("conn seed %d: lenient aborted on record damage: %v", i, lerr)
			} else if stats.RecordsSkipped == 0 {
				t.Errorf("conn seed %d: lenient skipped nothing (kept %d)", i, len(lt.Conns))
			}
		}
	}
	for i, in := range tamperedPacketSeeds {
		if _, _, err := ReadPacketTrace(strings.NewReader(in), DecodeOptions{}); err == nil {
			t.Errorf("packet seed %d: strict accepted tampered input", i)
		}
	}
}

// truncations returns prefixes of a valid encoding that cut the
// stream inside the header, between records, and mid-record — the
// torn-write shapes a reader must reject without panicking.
func truncations(full []byte) [][]byte {
	cuts := []int{1, 3, 5} // inside magic / name length
	if n := len(full); n > 9 {
		cuts = append(cuts, n/2, n-1) // mid-record, last byte torn
	}
	var out [][]byte
	for _, c := range cuts {
		if c < len(full) {
			out = append(out, full[:c])
		}
	}
	return out
}

// countTampered returns the encoding with extra record-count bytes
// claimed in the header but absent from the stream (header layout:
// magic, nameLen+name, horizon, count — count is little-endian at the
// end of the header).
func countTampered(magic string, name string) []byte {
	out := []byte(magic)
	out = append(out, byte(len(name)), 0)
	out = append(out, name...)
	out = append(out, make([]byte, 8)...)                             // horizon 0
	out = append(out, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00) // count 2^32-1, no records
	return out
}

// FuzzReadConnTraceBinary checks ReadConnTrace from a binary corpus
// against the invariants of FuzzReadConnTrace, and that no input
// forces unbounded allocation. The last two seeds carry the other
// kind's magic and the text encoding's.
func FuzzReadConnTraceBinary(f *testing.F) {
	seed := encodeSeed(f, func(b *bytes.Buffer) error { return WriteConnTrace(b, sampleConnTrace(), true) })
	f.Add(seed)
	f.Add([]byte("WCT1"))
	f.Add([]byte{})
	// Zero-length trace: a valid header with no records must round-trip.
	f.Add(encodeSeed(f, func(b *bytes.Buffer) error {
		return WriteConnTrace(b, &ConnTrace{Name: "empty", Horizon: 3600}, true)
	}))
	// Truncated records: every torn prefix must error cleanly.
	for _, cut := range truncations(seed) {
		f.Add(cut)
	}
	f.Add(countTampered("WCT1", "big"))
	f.Add(encodeSeed(f, func(b *bytes.Buffer) error { return WritePacketTrace(b, seedPacketTrace, true) }))
	f.Add(encodeSeed(f, func(b *bytes.Buffer) error { return WriteConnTrace(b, sampleConnTrace(), false) }))
	f.Fuzz(fuzzConnInvariants)
}

// FuzzReadPacketTraceBinary mirrors FuzzReadConnTraceBinary for packet
// traces.
func FuzzReadPacketTraceBinary(f *testing.F) {
	seed := encodeSeed(f, func(b *bytes.Buffer) error { return WritePacketTrace(b, seedPacketTrace, true) })
	f.Add(seed)
	f.Add([]byte("WPT1\x00\x00"))
	f.Add(encodeSeed(f, func(b *bytes.Buffer) error {
		return WritePacketTrace(b, &PacketTrace{Name: "empty", Horizon: 60}, true)
	}))
	for _, cut := range truncations(seed) {
		f.Add(cut)
	}
	f.Add(countTampered("WPT1", "big"))
	f.Add(encodeSeed(f, func(b *bytes.Buffer) error { return WriteConnTrace(b, sampleConnTrace(), true) }))
	f.Add(encodeSeed(f, func(b *bytes.Buffer) error { return WritePacketTrace(b, seedPacketTrace, false) }))
	f.Fuzz(fuzzPacketInvariants)
}

// TestBinaryZeroLengthRoundTrip pins the zero-record case outside the
// fuzz harness: empty traces are legal and must survive both codecs.
func TestBinaryZeroLengthRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteConnTrace(&buf, &ConnTrace{Name: "none", Horizon: 10}, true); err != nil {
		t.Fatal(err)
	}
	ct, _, err := ReadConnTrace(bytes.NewReader(buf.Bytes()), DecodeOptions{})
	if err != nil || ct.Name != "none" || ct.Horizon != 10 || len(ct.Conns) != 0 {
		t.Fatalf("conn zero-length round trip: %+v, %v", ct, err)
	}
	buf.Reset()
	if err := WritePacketTrace(&buf, &PacketTrace{Name: "none", Horizon: 10}, true); err != nil {
		t.Fatal(err)
	}
	pt, _, err := ReadPacketTrace(bytes.NewReader(buf.Bytes()), DecodeOptions{})
	if err != nil || pt.Name != "none" || len(pt.Packets) != 0 {
		t.Fatalf("packet zero-length round trip: %+v, %v", pt, err)
	}
}

// TestBinaryTruncatedRecordsError pins the torn-stream case: a header
// that claims more records than the stream holds must error, not hang
// or over-allocate.
func TestBinaryTruncatedRecordsError(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteConnTrace(&buf, sampleConnTrace(), true); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range truncations(full) {
		if _, _, err := ReadConnTrace(bytes.NewReader(cut), DecodeOptions{}); err == nil {
			t.Errorf("truncation to %d/%d bytes accepted", len(cut), len(full))
		}
	}
	if _, _, err := ReadConnTrace(bytes.NewReader(countTampered("WCT1", "big")), DecodeOptions{}); err == nil {
		t.Error("tampered record count accepted")
	}
	if _, _, err := ReadPacketTrace(bytes.NewReader(countTampered("WPT1", "big")), DecodeOptions{}); err == nil {
		t.Error("tampered packet record count accepted")
	}
}
