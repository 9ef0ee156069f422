package coord

import (
	"context"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"wantraffic/internal/fault"
	"wantraffic/internal/stream"
)

// The acceptance property for the whole distribution layer: ANY
// worker-arrival permutation × ANY injected HTTP fault schedule × ANY
// crash/restart schedule produces merged sketch bytes identical to
// the single-process reference over the same shard decomposition.
// Run under -race: the workers upload concurrently.

// distRound runs one full distributed ingest under a randomized fault
// and crash schedule and returns the coordinator's merged digest.
func distRound(t *testing.T, paths []string, cfg stream.Config, seed int64) string {
	t.Helper()
	workers := len(paths)
	rng := rand.New(rand.NewSource(seed))
	c, err := New(Options{ExpectedWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	base := newCoordServer(t, c, nil, "")
	ckptDir := t.TempDir()

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		// Per-worker randomized schedule, drawn up front so the parallel
		// execution order cannot influence it.
		plan := fault.HTTPPlan{
			Seed:             rng.Int63(),
			DropRate:         rng.Float64() * 0.3,
			DropResponseRate: rng.Float64() * 0.3,
			Rate5xx:          rng.Float64() * 0.2,
			Burst5xx:         1 + rng.Intn(3),
			TruncateRate:     rng.Float64() * 0.3,
		}
		crash := rng.Intn(3) == 0 // one in three workers crashes mid-run
		crashAfter := 2 + rng.Intn(3)
		delay := time.Duration(rng.Intn(3)) * time.Millisecond
		wg.Add(1)
		go func(i int, plan fault.HTTPPlan, crash bool, crashAfter int, delay time.Duration) {
			defer wg.Done()
			time.Sleep(delay) // jitter arrival order
			ckpt := filepath.Join(ckptDir, wname(i)+".ckpt")
			opts := WorkerOptions{
				ID: wname(i), Shard: i, TracePath: paths[i], Config: cfg,
				UploadEvery: 512, Checkpoint: ckpt,
				Client: &Client{
					Base: base, Seed: uint64(plan.Seed), Retries: 60,
					Sleep:      func(time.Duration) {},
					HTTPClient: &http.Client{Transport: fault.NewRoundTripper(nil, plan)},
				},
			}
			if crash {
				// First life: the network partitions permanently after a few
				// requests; the worker dies with whatever it had checkpointed.
				cplan := plan
				cplan.CutAfter = crashAfter
				cplan.CutDelivered = crashAfter%2 == 0 // sometimes the server applies the doomed upload
				first := opts
				first.Client = &Client{
					Base: base, Seed: uint64(plan.Seed), Retries: 2,
					Sleep:      func(time.Duration) {},
					HTTPClient: &http.Client{Transport: fault.NewRoundTripper(nil, cplan)},
				}
				// Either outcome is a legal schedule: usually the partition
				// kills the worker mid-run, but if the cut lands after the
				// final upload the first life finishes cleanly and the
				// "restart" below becomes a full idempotent re-POST.
				_, _ = RunWorker(context.Background(), first)
				opts.Resume = true
			}
			_, err := RunWorker(context.Background(), opts)
			errs[i] = err
		}(i, plan, crash, crashAfter, delay)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	select {
	case <-c.Done():
	default:
		t.Fatal("coordinator incomplete after every worker finished")
	}
	_, digest, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	return digest
}

func TestDistDeterminismUnderFaults(t *testing.T) {
	const workers = 4
	tr := testTrace(3000)
	shards := splitTrace(tr, workers)
	paths := writeShardFiles(t, shards)
	cfg := stream.Config{Seed: 17}
	want := referenceDigest(t, shards, cfg)

	rounds := 12
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		if got := distRound(t, paths, cfg, int64(1000+round)); got != want {
			t.Fatalf("round %d: merged digest %s, single-process reference %s", round, got, want)
		}
	}
}

// TestWorkerRestartIdempotence is the satellite scenario verbatim:
// kill a worker mid-upload (the fault transport delivers its POST to
// the coordinator but destroys the response, then partitions), restart
// it from its checkpoint, and require the coordinator's merged state
// to be byte-identical to an uninterrupted run — including the upload
// accounting showing no double-count.
func TestWorkerRestartIdempotence(t *testing.T) {
	tr := testTrace(2000)
	shards := splitTrace(tr, 2)
	paths := writeShardFiles(t, shards)
	cfg := stream.Config{Seed: 23}

	run := func(killWorker0 bool) (string, *Coordinator) {
		c, err := New(Options{ExpectedWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		base := newCoordServer(t, c, nil, "")
		ckpt := filepath.Join(t.TempDir(), "w0.ckpt")
		opts := WorkerOptions{
			ID: "w0", Shard: 0, TracePath: paths[0], Config: cfg,
			UploadEvery: 512, Checkpoint: ckpt,
			Client: &Client{Base: base, Seed: 1, Sleep: func(time.Duration) {}},
		}
		if killWorker0 {
			// The second upload is applied server-side, but the worker is
			// killed before it sees the ack (CutDelivered): the classic
			// at-least-once window where double-counting bugs live.
			first := opts
			first.Client = &Client{
				Base: base, Seed: 1, Retries: 1, Sleep: func(time.Duration) {},
				HTTPClient: &http.Client{Transport: fault.NewRoundTripper(nil, fault.HTTPPlan{
					CutAfter: 1, CutDelivered: true,
				})},
			}
			if _, err := RunWorker(context.Background(), first); err == nil {
				t.Fatal("killed worker reported success")
			}
			if _, err := os.Stat(ckpt); err != nil {
				t.Fatalf("no checkpoint survived the kill: %v", err)
			}
			opts.Resume = true
		}
		rep, err := RunWorker(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if killWorker0 && !rep.Resumed {
			t.Fatal("restarted worker did not resume from its checkpoint")
		}
		if _, err := RunWorker(context.Background(), WorkerOptions{
			ID: "w1", Shard: 1, TracePath: paths[1], Config: cfg,
			Client: &Client{Base: base, Seed: 2, Sleep: func(time.Duration) {}},
		}); err != nil {
			t.Fatal(err)
		}
		_, digest, err := c.Merged()
		if err != nil {
			t.Fatal(err)
		}
		return digest, c
	}

	clean, _ := run(false)
	killed, c := run(true)
	if clean != killed {
		t.Fatalf("kill/restart digest %s, uninterrupted digest %s", killed, clean)
	}
	res, err := c.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ResultComplete {
		t.Fatalf("status %s after recovery", res.Status)
	}
	w0 := res.Workers[0]
	if w0.Records != int64(len(shards[0].Conns)) {
		t.Fatalf("worker 0 records %d, want %d (double-count?)", w0.Records, len(shards[0].Conns))
	}
	if w0.Epoch < 2 {
		t.Fatalf("restarted worker kept epoch %d", w0.Epoch)
	}
}
