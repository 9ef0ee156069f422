package observe

import (
	"bytes"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"wantraffic/internal/fault"
	"wantraffic/internal/obs"
	"wantraffic/internal/trace"
)

func swapTrace(t *testing.T, binary bool) []byte {
	t.Helper()
	conns := regimeSwapConns(47, 100, 250)
	tr := &trace.ConnTrace{Name: "swap", Horizon: 250, Conns: conns}
	var b bytes.Buffer
	var err error
	if binary {
		err = trace.WriteConnTraceBinary(&b, tr)
	} else {
		err = trace.WriteConnTrace(&b, tr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestReplayMatchesDirectIngest pins the replayer's core promise:
// pacing (any dilation, any encoding) never changes what the
// observatory computes.
func TestReplayMatchesDirectIngest(t *testing.T) {
	conns := regimeSwapConns(47, 100, 250)
	var wantEvs []Event
	direct := New(testOptions(&wantEvs))
	for _, c := range conns {
		direct.ObserveConn(c)
	}
	direct.Flush()
	want, err := direct.State()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		binary bool
		dilate float64
	}{
		{"text-fullspeed", false, 0},
		{"binary-fullspeed", true, 0},
		{"text-dilated", false, 50000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A fake clock that jumps on sleep keeps dilated replays
			// instant while exercising the pacing arithmetic.
			clock := time.Unix(0, 0)
			var slept time.Duration
			var evs []Event
			o := New(testOptions(&evs))
			st, err := Replay(bytes.NewReader(swapTrace(t, tc.binary)), o, ReplayOptions{
				Dilate: tc.dilate,
				Flush:  true,
				Now:    func() time.Time { return clock },
				Sleep: func(d time.Duration) {
					slept += d
					clock = clock.Add(d)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Records != int64(len(conns)) {
				t.Fatalf("replayed %d records, want %d", st.Records, len(conns))
			}
			got, err := o.State()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("replayed state diverges from direct ingest")
			}
			if !bytes.Equal(eventJSON(t, evs), eventJSON(t, wantEvs)) {
				t.Fatal("replayed event sequence diverges from direct ingest")
			}
			if tc.dilate > 0 && slept == 0 {
				t.Fatal("dilated replay never slept")
			}
			if tc.dilate == 0 && slept != 0 {
				t.Fatal("full-speed replay slept")
			}
		})
	}
}

// TestReplayChaosReader drags the -follow ingest path through the
// fault injector: bit flips, dropped lines and truncation must never
// panic or wedge the observatory — under lenient decoding the replay
// completes on whatever survives, and the observatory's state still
// round-trips.
func TestReplayChaosReader(t *testing.T) {
	raw := swapTrace(t, false)
	for seed := int64(1); seed <= 8; seed++ {
		var evs []Event
		o := New(testOptions(&evs))
		r := fault.NewReader(bytes.NewReader(raw), fault.Plan{
			Seed:          seed,
			BitFlipRate:   0.0005,
			DropLineRate:  0.01,
			KeepFirstLine: true,
			TruncateAfter: int64(len(raw)) * (seed + 2) / 10,
		})
		st, err := Replay(r, o, ReplayOptions{
			Flush:  true,
			Decode: trace.DecodeOptions{Lenient: true},
		})
		// Bit flips can corrupt the header itself or trip a resource
		// limit; any outcome is acceptable except a panic or a wedge.
		if err != nil {
			continue
		}
		if st.Records != o.Records() {
			t.Fatalf("seed %d: replay says %d records, observatory says %d", seed, st.Records, o.Records())
		}
		mid, err := o.State()
		if err != nil {
			t.Fatalf("seed %d: state after chaos: %v", seed, err)
		}
		restored := New(testOptions(&evs))
		if err := restored.Restore(mid); err != nil {
			t.Fatalf("seed %d: restore after chaos: %v", seed, err)
		}
		got, err := restored.State()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(mid, got) {
			t.Fatalf("seed %d: chaos-fed state does not round-trip", seed)
		}
	}
}

func TestReplayRejectsUnknownHeader(t *testing.T) {
	var evs []Event
	o := New(testOptions(&evs))
	if _, err := Replay(bytes.NewReader([]byte("not a trace\n")), o, ReplayOptions{}); err == nil {
		t.Fatal("unknown header accepted")
	}
}

// TestReplayAdoptsPipelineID: when the trace framing carries a
// pipeline ID (wanload -pipeline-id through an encoder), Replay must
// surface it to the observatory's watermark set so -follow mode
// reports end-to-end freshness under the producer's identity — and
// must leave the set untouched for unframed traces.
func TestReplayAdoptsPipelineID(t *testing.T) {
	conns := regimeSwapConns(47, 40, 250)
	for _, binary := range []bool{false, true} {
		var buf bytes.Buffer
		enc, err := trace.NewConnEncoderWith(&buf, "swap", 250, binary, trace.EncoderOptions{PipelineID: "px42"})
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
		reg := obs.NewRegistry()
		marks := obs.NewWatermarks(reg, obs.StepClock(obs.TestEpoch, time.Second))
		var evs []Event
		opt := testOptions(&evs)
		opt.Marks = marks
		o := New(opt)
		if _, err := Replay(bytes.NewReader(buf.Bytes()), o, ReplayOptions{Flush: true}); err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
		if got := marks.Pipeline(); got != "px42" {
			t.Fatalf("binary=%v: adopted pipeline %q, want px42", binary, got)
		}
	}

	// Unframed trace: no adoption, the set stays anonymous.
	marks := obs.NewWatermarks(obs.NewRegistry(), obs.StepClock(obs.TestEpoch, time.Second))
	var evs []Event
	opt := testOptions(&evs)
	opt.Marks = marks
	o := New(opt)
	if _, err := Replay(bytes.NewReader(swapTrace(t, false)), o, ReplayOptions{Flush: true}); err != nil {
		t.Fatal(err)
	}
	if got := marks.Pipeline(); got != "" {
		t.Fatalf("unframed trace adopted pipeline %q", got)
	}
}

// TestReplayFoldsBeforeNextRecord pins Replay's latency property: a
// record is folded as soon as it decodes, so the verdict for window k
// fires while the first record of window k+1 is the last one read.
// The trace arrives through an io.Pipe one record per Write, and each
// Write returns only once Replay has read that record; a replayer that
// waited to fill a batch before folding would let the writer deliver
// records past the window's closing one before the verdict fired.
func TestReplayFoldsBeforeNextRecord(t *testing.T) {
	pkts := make([]trace.Packet, 0, 300)
	for i := 0; i < 300; i++ {
		pkts = append(pkts, trace.Packet{Time: 0.2 * float64(i), Size: 40 + i%7, Proto: trace.Telnet, ConnID: int64(i)})
	}
	var buf bytes.Buffer
	if err := trace.WritePacketTrace(&buf, &trace.PacketTrace{Name: "latency", Horizon: 60, Packets: pkts}); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))

	pr, pw := io.Pipe()
	var delivered atomic.Int64 // records whose Write has returned
	go func() {
		defer pw.Close()
		if _, err := pw.Write(lines[0]); err != nil { // header
			return
		}
		for _, ln := range lines[1:] {
			if len(ln) == 0 {
				continue
			}
			if _, err := pw.Write(ln); err != nil {
				return
			}
			delivered.Add(1)
		}
	}()

	type fire struct{ window, folded, delivered int64 }
	var fires []fire
	var o *Observatory
	opt := testOptions(new([]Event))
	opt.OnEvent = func(ev Event) {
		if ev.Kind == obs.EventVerdict {
			// Records() counts the records folded before the one whose
			// arrival closed the window.
			fires = append(fires, fire{ev.Window, o.Records(), delivered.Load()})
		}
	}
	o = New(opt)
	st, err := Replay(pr, o, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != int64(len(pkts)) {
		t.Fatalf("replayed %d records, want %d", st.Records, len(pkts))
	}
	if len(fires) < 10 {
		t.Fatalf("only %d verdicts fired", len(fires))
	}
	for _, f := range fires {
		// The closing record is record index f.folded; at most it and
		// the records before it may have been delivered.
		if f.delivered > f.folded+1 {
			t.Fatalf("verdict for window %d fired after %d records were delivered; its closing record was #%d",
				f.window, f.delivered, f.folded+1)
		}
	}
}
