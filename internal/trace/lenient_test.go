package trace

import (
	"bytes"
	"strings"
	"testing"

	"wantraffic/internal/fault"
)

// corruptConnText is a connection trace with 4 good records and 3
// malformed ones (bad field count, overflow, non-numeric).
const corruptConnText = `#conntrace messy 3600
1 2 TELNET 3 4 5
1.5 2 TELNET
2 2 FTPDATA 9223372036854775808 0 1
3 0.5 SMTP 100 200 7
oops nan FTPDATA x y z
4 1 NNTP 10 20 30
5 1 WWW 1 1 1
`

func TestLenientConnDecodeAccountsEverySkip(t *testing.T) {
	tr, stats, err := ReadConnTrace(strings.NewReader(corruptConnText), DecodeOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Conns) != 4 {
		t.Fatalf("kept %d records, want 4", len(tr.Conns))
	}
	if stats.RecordsKept != 4 || stats.RecordsSkipped != 3 {
		t.Fatalf("stats %+v, want 4 kept / 3 skipped", stats)
	}
	if stats.LinesRead != 8 {
		t.Fatalf("LinesRead = %d, want 8 (header + 7 records)", stats.LinesRead)
	}
	if len(stats.Errors) != 3 {
		t.Fatalf("want 3 recorded errors, got %v", stats.Errors)
	}
	// Strict mode aborts on the first malformed record.
	if _, _, err := ReadConnTrace(strings.NewReader(corruptConnText), DecodeOptions{}); err == nil {
		t.Fatal("strict mode accepted malformed input")
	}
}

func TestLenientPacketDecode(t *testing.T) {
	in := "#pkttrace p 60\n1 512 TELNET 1\nbad line here\n2 1e99 SMTP 2\n3 40 NNTP 3\n"
	tr, stats, err := ReadPacketTrace(strings.NewReader(in), DecodeOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Packets) != 2 || stats.RecordsKept != 2 || stats.RecordsSkipped != 2 {
		t.Fatalf("kept %d, stats %+v", len(tr.Packets), stats)
	}
}

func TestLenientHeaderErrorsStillAbort(t *testing.T) {
	for _, in := range []string{"", "#wrongmagic x 1\n1 2 TELNET 3 4 5\n", "#conntrace x notafloat\n"} {
		if _, _, err := ReadConnTrace(strings.NewReader(in), DecodeOptions{Lenient: true}); err == nil {
			t.Errorf("lenient mode accepted broken header %q", in)
		}
	}
}

func TestMaxErrorsBoundsMessagesNotCounts(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("#conntrace x 10\n")
	for i := 0; i < 50; i++ {
		sb.WriteString("garbage\n")
	}
	_, stats, err := ReadConnTrace(strings.NewReader(sb.String()), DecodeOptions{Lenient: true, MaxErrors: 5})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsSkipped != 50 {
		t.Fatalf("skip count %d, want exact 50", stats.RecordsSkipped)
	}
	if len(stats.Errors) != 5 {
		t.Fatalf("retained %d error messages, want 5", len(stats.Errors))
	}
}

func TestMaxRecordsAbortsBothModes(t *testing.T) {
	in := "#conntrace x 10\n1 1 TELNET 1 1 1\n2 1 TELNET 1 1 1\n3 1 TELNET 1 1 1\n"
	for _, lenient := range []bool{false, true} {
		_, _, err := ReadConnTrace(strings.NewReader(in), DecodeOptions{Lenient: lenient, MaxRecords: 2})
		if err == nil || !strings.Contains(err.Error(), "record limit") {
			t.Errorf("lenient=%v: want record-limit error, got %v", lenient, err)
		}
	}
}

func TestMaxLineBytesAbortsBothModes(t *testing.T) {
	in := "#conntrace x 10\n1 1 TELNET 1 1 " + strings.Repeat("9", 4096) + "\n"
	for _, lenient := range []bool{false, true} {
		_, _, err := ReadConnTrace(strings.NewReader(in), DecodeOptions{Lenient: lenient, MaxLineBytes: 256})
		if err == nil || !strings.Contains(err.Error(), "line limit") {
			t.Errorf("lenient=%v: want line-limit error, got %v", lenient, err)
		}
	}
}

func TestLenientBinaryTruncationKeepsPrefix(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteConnTrace(&buf, sampleConnTrace(), true); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	total := len(sampleConnTrace().Conns)
	// Cut inside the record area: lenient decode keeps whole records
	// before the cut and accounts for the promised remainder.
	cut := len(full) - 41 - 7 // drop the last record and tear the one before
	tr, stats, err := ReadConnTrace(bytes.NewReader(full[:cut]), DecodeOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Conns) != total-2 {
		t.Fatalf("kept %d records, want %d", len(tr.Conns), total-2)
	}
	if stats.RecordsKept+stats.RecordsSkipped != total {
		t.Fatalf("accounting hole: kept %d + skipped %d != %d", stats.RecordsKept, stats.RecordsSkipped, total)
	}
	// Strict still refuses.
	if _, _, err := ReadConnTrace(bytes.NewReader(full[:cut]), DecodeOptions{}); err == nil {
		t.Fatal("strict binary decode accepted truncated stream")
	}
}

func TestLenientBinaryPacketTruncation(t *testing.T) {
	pt := &PacketTrace{Name: "p", Horizon: 10, Packets: []Packet{
		{Time: 1, Size: 2, Proto: SMTP, ConnID: 3},
		{Time: 2, Size: 4, Proto: NNTP, ConnID: 5},
	}}
	var buf bytes.Buffer
	if err := WritePacketTrace(&buf, pt, true); err != nil {
		t.Fatal(err)
	}
	cut := buf.Len() - 5
	tr, stats, err := ReadPacketTrace(bytes.NewReader(buf.Bytes()[:cut]), DecodeOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Packets) != 1 || stats.RecordsKept != 1 || stats.RecordsSkipped != 1 {
		t.Fatalf("kept %d, stats %+v", len(tr.Packets), stats)
	}
}

// TestLenientUnderFaultInjection drives the lenient text decoder with
// the fault package's record drops and truncation: the decode must
// never error on record-level damage and the accounting invariant
// (kept records == records in the returned trace) must hold.
func TestLenientUnderFaultInjection(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("#conntrace chaos 3600\n")
	for i := 0; i < 500; i++ {
		sb.WriteString("1.5 2.25 TELNET 100 200 7\n")
	}
	clean := sb.String()
	for seed := int64(0); seed < 20; seed++ {
		r := fault.NewReader(strings.NewReader(clean), fault.Plan{
			Seed: seed, DropLineRate: 0.2, KeepFirstLine: true, ShortReads: true,
		})
		tr, stats, err := ReadConnTrace(r, DecodeOptions{Lenient: true})
		if err != nil {
			t.Fatalf("seed %d: lenient decode errored on dropped records: %v", seed, err)
		}
		if stats.RecordsKept != len(tr.Conns) {
			t.Fatalf("seed %d: stats claim %d kept but trace holds %d", seed, stats.RecordsKept, len(tr.Conns))
		}
		if stats.RecordsKept+stats.RecordsSkipped != stats.LinesRead-1 {
			t.Fatalf("seed %d: accounting hole: %+v", seed, stats)
		}
	}
}
