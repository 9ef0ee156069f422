package stream

import (
	"bytes"
	"context"
	"testing"

	"wantraffic/internal/fault"
	"wantraffic/internal/trace"
)

// TestPipelineBatchUnderFaults drives the pooled-batch ingest through
// the chaos reader: bit flips, dropped lines, truncation, injected
// mid-stream errors and pathological short reads. The contract under
// faults is the repo-wide one — degrade coverage, never correctness:
// no panic, exact accounting (kept + skipped records both bounded by
// the trace), a sketch whose record count matches the kept count, and
// bitwise determinism for a fixed fault seed.
func TestPipelineBatchUnderFaults(t *testing.T) {
	tr := testConnTrace(2000)
	text := encodeConn(t, tr)
	var bin bytes.Buffer
	if err := trace.WriteConnTrace(&bin, tr, true); err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		name string
		plan fault.Plan
	}{
		{"bitflips", fault.Plan{Seed: 1, BitFlipRate: 1e-4, ShortReads: true}},
		{"linedrops", fault.Plan{Seed: 2, DropLineRate: 0.05, KeepFirstLine: true}},
		{"truncate", fault.Plan{Seed: 3, TruncateAfter: int64(len(text) / 3)}},
		{"fail", fault.Plan{Seed: 4, FailAfter: int64(len(text) / 2), ShortReads: true}},
		{"everything", fault.Plan{Seed: 5, BitFlipRate: 5e-5, DropLineRate: 0.02, KeepFirstLine: true,
			TruncateAfter: int64(len(text)) - 40, ShortReads: true}},
	}
	popts := PipelineOptions{Shards: 4, ChunkSize: 64, Config: Config{Seed: 10}}
	for _, enc := range []struct {
		name string
		data []byte
	}{{"text", text}, {"binary", bin.Bytes()}} {
		for _, tc := range plans {
			run := func() (*Result, error) {
				r := fault.NewReader(bytes.NewReader(enc.data), tc.plan)
				return Ingest(context.Background(), r, trace.DecodeOptions{Lenient: true}, popts)
			}
			res, err := run()
			if res == nil {
				// Faults that destroy the header legitimately yield no
				// result, but then they must yield an error.
				if err == nil {
					t.Errorf("%s/%s: no result and no error", enc.name, tc.name)
				}
				continue
			}
			kept := res.Stats.RecordsKept
			if kept > len(tr.Conns) || res.Stats.RecordsSkipped < 0 {
				t.Errorf("%s/%s: implausible accounting %+v", enc.name, tc.name, res.Stats)
			}
			if res.Sketch.Records() != int64(kept) {
				t.Errorf("%s/%s: sketch folded %d records but scanner kept %d",
					enc.name, tc.name, res.Sketch.Records(), kept)
			}
			// Same fault seed → byte-identical outcome, including the
			// partial sketch on an injected failure.
			res2, err2 := run()
			if (err == nil) != (err2 == nil) || res2 == nil {
				t.Fatalf("%s/%s: reruns disagree on failure (%v vs %v)", enc.name, tc.name, err, err2)
			}
			s1, serr1 := res.Sketch.State()
			s2, serr2 := res2.Sketch.State()
			if serr1 != nil || serr2 != nil {
				t.Fatal(serr1, serr2)
			}
			if !bytes.Equal(s1, s2) {
				t.Errorf("%s/%s: same fault seed produced different sketches", enc.name, tc.name)
			}
		}
	}
}
