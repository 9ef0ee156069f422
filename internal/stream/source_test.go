package stream

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"wantraffic/internal/trace"
)

// Adding Proto must not grow Obs: it rides in HasGap's padding.
func TestObsSize(t *testing.T) {
	if got := unsafe.Sizeof(Obs{}); got != 40 {
		t.Fatalf("Obs is %d bytes, want 40", got)
	}
}

// sourceCase is one encoded trace plus the observations and decode
// outcome a direct scanner loop derives from it.
type sourceCase struct {
	name    string
	data    []byte
	dopts   trace.DecodeOptions
	want    []Obs
	stats   trace.DecodeStats
	wantErr bool
}

// directObs is the reference derivation: a record-at-a-time scanner
// loop over the same bytes, written out independently of Source.
func directObs(t *testing.T, data []byte, dopts trace.DecodeOptions) ([]Obs, trace.DecodeStats, error) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(data))
	kind, _, err := trace.SniffHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	var out []Obs
	add := func(o Obs) {
		if n := len(out); n > 0 {
			o.Gap, o.HasGap = o.Time-out[n-1].Time, true
		}
		out = append(out, o)
	}
	if kind == trace.KindConn {
		sc := trace.NewConnScanner(br, dopts)
		for sc.Scan() {
			c := sc.Conn()
			add(Obs{Time: c.Start, Value: float64(c.BytesOrig + c.BytesResp), Duration: c.Duration, Proto: c.Proto})
		}
		return out, sc.Stats(), sc.Err()
	}
	sc := trace.NewPacketScanner(br, dopts)
	for sc.Scan() {
		p := sc.Packet()
		add(Obs{Time: p.Time, Value: float64(p.Size), Proto: p.Proto})
	}
	return out, sc.Stats(), sc.Err()
}

// corruptText mangles record lines 300 and 301 of a text trace, so the
// damage lands inside a read batch at every read length tested.
func corruptText(data []byte) []byte {
	lines := bytes.Split(data, []byte("\n"))
	rec := 0
	for i, ln := range lines {
		if len(ln) == 0 || ln[0] == '#' {
			continue
		}
		if rec == 300 || rec == 301 {
			lines[i] = []byte("MANGLED x y z")
		}
		rec++
	}
	return bytes.Join(lines, []byte("\n"))
}

func sourceCases(t *testing.T) []sourceCase {
	t.Helper()
	ct := testConnTrace(1000)
	pt := &trace.PacketTrace{Name: "src-test", Horizon: 100}
	protos := []trace.Protocol{trace.Telnet, trace.WWW, trace.FTPData, trace.Other}
	for i := 0; i < 1000; i++ {
		pt.Packets = append(pt.Packets, trace.Packet{Time: 0.1 * float64(i), Size: 40 + i%1400, Proto: protos[i%len(protos)], ConnID: int64(i % 17)})
	}
	encodings := map[string]func(*bytes.Buffer) error{
		"conn-text":  func(b *bytes.Buffer) error { return trace.WriteConnTrace(b, ct, false) },
		"conn-bin":   func(b *bytes.Buffer) error { return trace.WriteConnTrace(b, ct, true) },
		"pkt-text":   func(b *bytes.Buffer) error { return trace.WritePacketTrace(b, pt, false) },
		"pkt-binary": func(b *bytes.Buffer) error { return trace.WritePacketTrace(b, pt, true) },
	}
	var cases []sourceCase
	for _, name := range []string{"conn-text", "conn-bin", "pkt-text", "pkt-binary"} {
		var buf bytes.Buffer
		if err := encodings[name](&buf); err != nil {
			t.Fatal(err)
		}
		clean := buf.Bytes()
		// Binary records cannot be malformed, only cut short: truncate
		// mid-record, which strict mode rejects and lenient mode skips.
		corrupt := clean[:len(clean)-7]
		if strings.HasSuffix(name, "text") {
			corrupt = corruptText(clean)
		}
		for _, m := range []struct {
			mode  string
			data  []byte
			dopts trace.DecodeOptions
		}{
			{"strict", clean, trace.DecodeOptions{}},
			{"strict-corrupt", corrupt, trace.DecodeOptions{}},
			{"lenient-corrupt", corrupt, trace.DecodeOptions{Lenient: true}},
		} {
			want, stats, err := directObs(t, m.data, m.dopts)
			// The corrupt inputs must really exercise the error and
			// skip paths.
			if (m.mode == "strict-corrupt") != (err != nil) {
				t.Fatalf("%s/%s: reference error %v", name, m.mode, err)
			}
			if (m.mode == "lenient-corrupt") != (stats.RecordsSkipped > 0) {
				t.Fatalf("%s/%s: reference skipped %d records", name, m.mode, stats.RecordsSkipped)
			}
			cases = append(cases, sourceCase{
				name: name + "/" + m.mode, data: m.data, dopts: m.dopts,
				want: want, stats: stats, wantErr: err != nil,
			})
		}
	}
	return cases
}

// TestSourceMatchesDirectScan: at every read length, Source.Next must
// yield exactly the observations a direct scanner loop derives —
// Proto, Gap and HasGap included, with the gap chain carried across
// calls — plus the same decode accounting and error outcome.
func TestSourceMatchesDirectScan(t *testing.T) {
	for _, tc := range sourceCases(t) {
		for _, size := range []int{1, 7, 512} {
			t.Run(fmt.Sprintf("%s/read%d", tc.name, size), func(t *testing.T) {
				src, err := NewSource(bytes.NewReader(tc.data), tc.dopts)
				if err != nil {
					t.Fatal(err)
				}
				var got []Obs
				buf := make([]Obs, size)
				for {
					n, err := src.Next(buf)
					got = append(got, buf[:n]...)
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						if !tc.wantErr {
							t.Fatalf("unexpected error: %v", err)
						}
						break
					}
					if n != size {
						t.Fatalf("short read %d of %d before the end of the stream", n, size)
					}
				}
				if len(got) != len(tc.want) {
					t.Fatalf("got %d observations, want %d", len(got), len(tc.want))
				}
				for i := range got {
					if got[i] != tc.want[i] {
						t.Fatalf("obs %d = %+v, want %+v", i, got[i], tc.want[i])
					}
				}
				if st := src.Stats(); !reflect.DeepEqual(st, tc.stats) {
					t.Fatalf("stats %+v, want %+v", st, tc.stats)
				}
			})
		}
	}
}

// TestSourceHeaderAtOpen: the header — pipeline ID included — is known
// before the first record is read, and a header that does not parse
// fails the open.
func TestSourceHeaderAtOpen(t *testing.T) {
	for _, binary := range []bool{false, true} {
		var buf bytes.Buffer
		enc, err := trace.NewPacketEncoderWith(&buf, "hdr", 9, binary, trace.EncoderOptions{PipelineID: "p7"})
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Write(trace.Packet{Time: 1, Size: 2, Proto: trace.SMTP}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		src, err := NewSource(&buf, trace.DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hdr := src.Header()
		if hdr.Kind != trace.KindPacket || hdr.Name != "hdr" || hdr.PipelineID != "p7" || hdr.Binary != binary {
			t.Fatalf("binary=%v: header %+v", binary, hdr)
		}
		if src.SketchKind() != PacketSketch {
			t.Fatalf("sketch kind %q", src.SketchKind())
		}
	}
	for _, bad := range []string{"not a trace\n", "#conntrace missing-horizon\n1 2 TELNET 3 4 5\n"} {
		if _, err := NewSource(strings.NewReader(bad), trace.DecodeOptions{}); err == nil {
			t.Errorf("header %q accepted", bad)
		}
	}
}

// readSizes records the length of every Read its reader is asked for.
type readSizes struct {
	r     io.Reader
	sizes []int
}

func (r *readSizes) Read(p []byte) (int, error) {
	r.sizes = append(r.sizes, len(p))
	return r.r.Read(p)
}

// A Source asks its reader for trace.HandoffSize bytes at a time, so a
// pipe from a full-speed producer hands over a whole chunk per Read.
// IngestReader's reused reader has that size, so NewSource reads
// through it rather than through a second buffer.
func TestSourceReadsWholeChunks(t *testing.T) {
	var text bytes.Buffer
	if _, err := io.Copy(&text, newConnGen(20000, 3)); err != nil {
		t.Fatal(err)
	}
	tr, _, err := trace.ReadConnTrace(bytes.NewReader(text.Bytes()), trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := trace.WriteConnTrace(&bin, tr, true); err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ConnSketch, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	readers := []struct {
		name string
		read func(t *testing.T, r io.Reader) (int64, error)
	}{
		{"NewSource", func(_ *testing.T, r io.Reader) (int64, error) {
			src, err := NewSource(r, trace.DecodeOptions{})
			if err != nil {
				return 0, err
			}
			var out [256]Obs
			var total int64
			for {
				n, err := src.Next(out[:])
				total += int64(n)
				if err == io.EOF {
					return total, nil
				} else if err != nil {
					return total, err
				}
			}
		}},
		{"IngestReader", func(t *testing.T, r io.Reader) (int64, error) {
			before := sess.Records()
			_, _, err := sess.IngestReader(context.Background(), r, trace.DecodeOptions{})
			if got := sess.br.Size(); got != trace.HandoffSize {
				t.Errorf("IngestReader's reader holds %d bytes, want %d", got, trace.HandoffSize)
			}
			return sess.Records() - before, err
		}},
	}
	for _, rd := range readers {
		for _, enc := range []struct {
			name string
			data []byte
		}{{"text", text.Bytes()}, {"binary", bin.Bytes()}} {
			t.Run(rd.name+"/"+enc.name, func(t *testing.T) {
				rec := &readSizes{r: bytes.NewReader(enc.data)}
				n, err := rd.read(t, rec)
				if err != nil {
					t.Fatal(err)
				}
				if n != int64(len(tr.Conns)) {
					t.Fatalf("read %d records, want %d", n, len(tr.Conns))
				}
				if len(rec.sizes) < len(enc.data)/trace.HandoffSize {
					t.Fatalf("%d reads for %d bytes", len(rec.sizes), len(enc.data))
				}
				for i, size := range rec.sizes {
					if size != trace.HandoffSize {
						t.Fatalf("read %d of %d asked for %d bytes, want %d", i, len(rec.sizes), size, trace.HandoffSize)
					}
				}
			})
		}
	}
}
