package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/iotest"
)

// genConnTrace builds a deterministic trace for batch-scanning tests.
func genConnTrace(n int) *ConnTrace {
	rng := rand.New(rand.NewSource(31))
	tr := &ConnTrace{Name: "batch-test", Horizon: 7200}
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64()
		tr.Conns = append(tr.Conns, Conn{
			Start: t, Duration: rng.ExpFloat64() * 40,
			Proto:     Protocols()[rng.Intn(len(Protocols()))],
			BytesOrig: rng.Int63n(1 << 24), BytesResp: rng.Int63n(1 << 24),
			SessionID: rng.Int63n(50),
		})
	}
	return tr
}

// connEncodings returns the trace in both wire formats.
func connEncodings(t testing.TB, tr *ConnTrace) map[string][]byte {
	t.Helper()
	var text, bin bytes.Buffer
	if err := WriteConnTrace(&text, tr, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteConnTrace(&bin, tr, true); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"text": text.Bytes(), "binary": bin.Bytes()}
}

// drainBatch pulls everything through ScanBatch with the given buffer
// size, collecting records and the terminal error.
func drainBatch(sc *ConnScanner, bufSize int) ([]Conn, error) {
	buf := make([]Conn, bufSize)
	var out []Conn
	for {
		n, err := sc.ScanBatch(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			return out, err
		}
	}
}

// drainSingle pulls everything record at a time via Scan.
func drainSingle(sc *ConnScanner) ([]Conn, error) {
	var out []Conn
	for sc.Scan() {
		out = append(out, sc.Conn())
	}
	return out, sc.Err()
}

// TestScanBatchMatchesScan: for every encoding, buffer size, and
// reader chunking, ScanBatch must yield exactly the records, stats,
// and terminal condition of the record-at-a-time path — the batch
// path is an optimization, never a semantic fork. OneByteReader
// forces every record to straddle read boundaries.
func TestScanBatchMatchesScan(t *testing.T) {
	tr := genConnTrace(257) // not a multiple of any buffer size below
	for enc, data := range connEncodings(t, tr) {
		ref := NewConnScanner(bytes.NewReader(data), DecodeOptions{})
		want, werr := drainSingle(ref)
		if werr != nil {
			t.Fatalf("%s: reference scan failed: %v", enc, werr)
		}
		for _, bufSize := range []int{1, 7, 64, 500} {
			for _, chunked := range []bool{false, true} {
				var r io.Reader = bytes.NewReader(data)
				if chunked {
					r = iotest.OneByteReader(r)
				}
				sc := NewConnScanner(r, DecodeOptions{})
				got, err := drainBatch(sc, bufSize)
				if err != io.EOF {
					t.Fatalf("%s buf=%d chunked=%v: terminal error %v, want io.EOF", enc, bufSize, chunked, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s buf=%d chunked=%v: batch records diverge from Scan", enc, bufSize, chunked)
				}
				if rk := sc.Stats().RecordsKept; rk != len(want) {
					t.Errorf("%s buf=%d: RecordsKept = %d, want %d", enc, bufSize, rk, len(want))
				}
				// Sticky EOF: further calls keep returning (0, io.EOF).
				if n, err := sc.ScanBatch(make([]Conn, 4)); n != 0 || err != io.EOF {
					t.Errorf("%s buf=%d: post-EOF ScanBatch = (%d, %v)", enc, bufSize, n, err)
				}
			}
		}
	}
}

// TestScanBatchPoisonedBuffer: ScanBatch writes only buf[:n], and
// every entry it reports is fully decoded — a recycled buffer full of
// garbage must never surface stale records.
func TestScanBatchPoisonedBuffer(t *testing.T) {
	tr := genConnTrace(100)
	poison := Conn{Start: -9e99, Duration: -1, Proto: Protocol(99), BytesOrig: -7, BytesResp: -7, SessionID: -1}
	for enc, data := range connEncodings(t, tr) {
		sc := NewConnScanner(bytes.NewReader(data), DecodeOptions{})
		buf := make([]Conn, 33)
		var got []Conn
		for {
			for i := range buf {
				buf[i] = poison
			}
			n, err := sc.ScanBatch(buf)
			for _, c := range buf[:n] {
				if c == poison {
					t.Fatalf("%s: stale pooled record surfaced in batch", enc)
				}
			}
			got = append(got, buf[:n]...)
			if err != nil {
				break
			}
		}
		if !reflect.DeepEqual(got, tr.Conns) {
			t.Fatalf("%s: poisoned-buffer scan diverges from trace", enc)
		}
	}
}

// TestScanBatchZeroAndNil: a zero-length (or nil) buffer reads
// nothing and reports no progress, without disturbing the stream.
func TestScanBatchZeroAndNil(t *testing.T) {
	data := connEncodings(t, genConnTrace(5))["binary"]
	sc := NewConnBinaryScanner(bytes.NewReader(data), DecodeOptions{})
	if n, err := sc.ScanBatch(nil); n != 0 || err != nil {
		t.Fatalf("ScanBatch(nil) = (%d, %v)", n, err)
	}
	got, err := drainBatch(sc, 2)
	if err != io.EOF || len(got) != 5 {
		t.Fatalf("after nil batch: %d records, err %v", len(got), err)
	}
}

// TestScanBatchMidBatchTruncation: a binary trace cut mid-record must
// surface every complete record in the failing batch before the
// error (strict) or account exactly one skip (lenient) — the cut
// position relative to the batch boundary must not matter.
func TestScanBatchMidBatchTruncation(t *testing.T) {
	tr := genConnTrace(100)
	full := connEncodings(t, tr)["binary"]
	for _, keep := range []int{10, 33, 64, 99} { // records preceding the cut
		cut := len(full) - (99-keep)*connRecordSize - connRecordSize/2
		data := full[:cut]

		strict := NewConnBinaryScanner(bytes.NewReader(data), DecodeOptions{})
		got, err := drainBatch(strict, 33)
		if err == nil || err == io.EOF {
			t.Fatalf("keep=%d: truncated trace scanned cleanly (err=%v)", keep, err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("keep=%d: error %v does not wrap ErrUnexpectedEOF", keep, err)
		}
		if len(got) != keep {
			t.Errorf("keep=%d: %d records surfaced before the error", keep, len(got))
		}
		if !reflect.DeepEqual(got, tr.Conns[:keep]) {
			t.Errorf("keep=%d: surfaced records diverge from the trace prefix", keep)
		}

		lenient := NewConnBinaryScanner(bytes.NewReader(data), DecodeOptions{Lenient: true})
		got, err = drainBatch(lenient, 33)
		if err != io.EOF {
			t.Fatalf("keep=%d lenient: terminal error %v, want io.EOF", keep, err)
		}
		st := lenient.Stats()
		if len(got) != keep || st.RecordsKept != keep {
			t.Errorf("keep=%d lenient: kept %d/%d records", keep, len(got), st.RecordsKept)
		}
		// The truncation claims the remaining declared records: one
		// torn record plus everything the header promised after it.
		if want := 100 - keep; st.RecordsSkipped != want {
			t.Errorf("keep=%d lenient: RecordsSkipped = %d, want %d", keep, st.RecordsSkipped, want)
		}
	}
}

// TestScanBatchLenientTextMidBatch: malformed text records inside a
// batch are skipped individually with exact accounting; the batch
// still fills with the surviving records.
func TestScanBatchLenientTextMidBatch(t *testing.T) {
	tr := genConnTrace(60)
	lines := bytes.Split(bytes.TrimRight(connEncodings(t, tr)["text"], "\n"), []byte("\n"))
	rec := 0
	for i, ln := range lines {
		if len(ln) == 0 || ln[0] == '#' {
			continue
		}
		if rec == 7 || rec == 8 || rec == 31 {
			lines[i] = []byte("garbled x y z")
		}
		rec++
	}
	sc := NewConnScanner(bytes.NewReader(bytes.Join(lines, []byte("\n"))), DecodeOptions{Lenient: true})
	got, err := drainBatch(sc, 25)
	if err != io.EOF {
		t.Fatalf("terminal error %v", err)
	}
	if len(got) != 57 || sc.Stats().RecordsSkipped != 3 || sc.Stats().RecordsKept != 57 {
		t.Fatalf("kept %d (stats %+v), want 57 kept / 3 skipped", len(got), sc.Stats())
	}
	want := append(append(append([]Conn{}, tr.Conns[:7]...), tr.Conns[9:31]...), tr.Conns[32:]...)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("lenient batch records diverge from the surviving trace records")
	}
}

// FuzzScanBatch: for arbitrary input bytes and batch sizes, the batch
// path must agree with the record-at-a-time path on records kept,
// skip accounting, and error class — strict and lenient, text and
// binary framing alike. Seeds pin the regressions this suite was
// built around: mid-batch truncation, records straddling read chunks
// (exercised structurally by small inputs), and tampered counts.
func FuzzScanBatch(f *testing.F) {
	tr := genConnTrace(40)
	for _, data := range connEncodings(f, tr) {
		f.Add(data, uint8(16))
		f.Add(data[:len(data)-connRecordSize/2], uint8(7)) // mid-record cut
		f.Add(data[:len(data)/2], uint8(1))
	}
	for _, s := range tamperedConnSeeds {
		f.Add([]byte(s), uint8(3))
	}
	f.Add(countTampered("WCT1", "huge"), uint8(64))
	// A header cut right after the magic must fail, not end cleanly.
	f.Add([]byte("WCT1"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, bufSize uint8) {
		size := int(bufSize)%128 + 1
		for _, lenient := range []bool{false, true} {
			opts := DecodeOptions{Lenient: lenient, MaxRecords: 1 << 16}
			single := NewConnScanner(bytes.NewReader(data), opts)
			wantRecs, wantErr := drainSingle(single)
			batch := NewConnScanner(bytes.NewReader(data), opts)
			gotRecs, gotErr := drainBatch(batch, size)
			if gotErr == io.EOF {
				gotErr = nil // drainSingle reports clean EOF as nil
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("lenient=%v: batch err %v, single err %v", lenient, gotErr, wantErr)
			}
			if gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("lenient=%v: batch err %q, single err %q", lenient, gotErr, wantErr)
			}
			if !reflect.DeepEqual(gotRecs, wantRecs) {
				t.Fatalf("lenient=%v buf=%d: batch decoded %d records, single %d, or contents diverge",
					lenient, size, len(gotRecs), len(wantRecs))
			}
			bs, ss := batch.Stats(), single.Stats()
			if bs.RecordsKept != ss.RecordsKept || bs.RecordsSkipped != ss.RecordsSkipped {
				t.Fatalf("lenient=%v: batch stats %+v, single stats %+v", lenient, bs, ss)
			}
		}
	})
}
