package wantraffic

import (
	"context"
	"testing"
)

// TestSerialParallelDeterminism is the engine's core guarantee, run
// end to end: executing the full experiment corpus serially and with a
// parallel worker pool (same seeds — every driver owns its RNG) must
// produce byte-identical artifact text for all 32 drivers. Run
// under -race (as CI does) this also flushes out any driver sharing a
// rand.Rand or other mutable state across experiments.
func TestSerialParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full corpus twice (slow)")
	}
	ctx := context.Background()
	serial := RunExperiments(ctx, RunOptions{Workers: 1})
	// Workers: 4 regardless of GOMAXPROCS so the concurrent path is
	// exercised (and race-instrumented) even on small CI machines.
	parallel := RunExperiments(ctx, RunOptions{Workers: 4})

	if len(serial.Results) != len(parallel.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(serial.Results), len(parallel.Results))
	}
	if serial.AllocsApprox {
		t.Error("serial report should attribute allocations exactly")
	}
	for i := range serial.Results {
		s, p := serial.Results[i], parallel.Results[i]
		if s.ID != p.ID {
			t.Fatalf("slot %d: id order differs: %s vs %s", i, s.ID, p.ID)
		}
		if !s.OK() {
			t.Errorf("%s: serial run failed: %s", s.ID, s.Err)
			continue
		}
		if !p.OK() {
			t.Errorf("%s: parallel run failed: %s", p.ID, p.Err)
			continue
		}
		if s.Output != p.Output {
			t.Errorf("%s: serial and parallel outputs differ (%d vs %d bytes, sha %s vs %s)",
				s.ID, len(s.Output), len(p.Output), s.OutputSHA256, p.OutputSHA256)
		}
	}
}
