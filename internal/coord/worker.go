package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"wantraffic/internal/obs"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// The worker side: one process owns one shard file of the decomposed
// trace and one sketch stamped with the shard's GLOBAL index (via the
// same per-(shard, dimension) sub-seeds a single-process run derives),
// so the coordinator's canonical merge is byte-identical to
// single-process ingest over the same decomposition.
//
// Crash safety is checkpoint-before-upload: the worker persists its
// serialized state atomically, then POSTs the same bytes. Whichever
// side the crash lands on, the restart path converges — the restarted
// worker restores the checkpoint, re-uploads it under a bumped epoch
// (accepted if the original POST was lost, duplicate if it landed),
// skips the records the checkpoint already folded in, and continues.
// Record skipping replays the source without observing, which also
// rebuilds the interarrival-gap state (previous record time) exactly.

// WorkerOptions configures one distributed ingest worker.
type WorkerOptions struct {
	// ID names the worker (1-64 chars of [A-Za-z0-9_-]).
	ID string
	// Shard is the worker's global shard index — its position in the
	// round-robin decomposition, which pins its reservoir sub-seeds.
	Shard int
	// TracePath is the shard trace file to ingest.
	TracePath string
	// Config parameterizes the sketch (seed must match the cohort's).
	Config stream.Config
	// Decode bounds the trace scanner.
	Decode trace.DecodeOptions
	// ChunkSize is the scan/observe batch size. It must match the
	// reference pipeline's (stream.DefaultChunkSize, the default here)
	// for byte-parity with single-process ingest.
	ChunkSize int
	// UploadEvery uploads a state snapshot every N records (rounded up
	// to a batch boundary); 0 uploads only the final state.
	UploadEvery int64
	// Checkpoint, when non-empty, persists the state to this path
	// before every upload.
	Checkpoint string
	// Resume restores a checkpoint at Checkpoint if one exists.
	Resume bool
	// IngestDelay sleeps this long after each batch — pacing for live
	// staleness/recovery demonstrations.
	IngestDelay time.Duration
	// Client ships the uploads (required).
	Client *Client
	// Logger receives lifecycle lines (nil: silent).
	Logger *slog.Logger
	// Metrics receives coord.worker ingest instruments (nil: none).
	Metrics *obs.Registry
	// Marks, when non-nil, stamps the ingest watermark per folded batch
	// and adopts the trace's pipeline ID; both also ride every upload.
	Marks *obs.Watermarks
}

// WorkerReport summarizes a completed worker run.
type WorkerReport struct {
	Worker  string `json:"worker"`
	Shard   int    `json:"shard"`
	Records int64  `json:"records"`
	Epoch   int64  `json:"epoch"`
	Seq     int64  `json:"seq"`
	Digest  string `json:"state_sha256"`
	Uploads int    `json:"uploads"`
	Resumed bool   `json:"resumed"`
	Skipped int64  `json:"skipped_records"`
}

// worker is the run state threaded through the scan loop.
type worker struct {
	opts   WorkerOptions
	sketch *stream.Sketch
	epoch  int64
	seq    int64
	digest string // last uploaded digest

	skip    int64 // records to replay without observing (resume)
	skipped int64
	uploads int
	resumed bool

	sinceUpload int64

	high     float64 // event-time high water across folded batches
	pipeline string  // the trace header's pipeline ID, sent with uploads
	ingWM    *obs.Watermark
}

// RunWorker ingests the shard trace and streams state to the
// coordinator, returning after the final upload is acknowledged.
func RunWorker(ctx context.Context, opts WorkerOptions) (WorkerReport, error) {
	if !validWorkerID(opts.ID) {
		return WorkerReport{}, fmt.Errorf("coord: invalid worker id %q (want 1-64 chars of [A-Za-z0-9_-])", opts.ID)
	}
	if opts.Client == nil {
		return WorkerReport{}, fmt.Errorf("coord: worker needs a Client")
	}
	if opts.ChunkSize < 1 {
		opts.ChunkSize = stream.DefaultChunkSize
	}
	w := &worker{opts: opts, epoch: 1, ingWM: opts.Marks.Stage(obs.StageIngest)}

	f, err := os.Open(opts.TracePath)
	if err != nil {
		return WorkerReport{}, err
	}
	defer f.Close()
	src, err := stream.NewSource(f, opts.Decode)
	if err != nil {
		return WorkerReport{}, err
	}
	traceKind := src.SketchKind()

	if opts.Resume && opts.Checkpoint != "" {
		if err := w.restore(traceKind); err != nil {
			return WorkerReport{}, err
		}
	}
	w.pipeline = src.Header().PipelineID
	opts.Marks.SetPipeline(w.pipeline)
	if w.sketch == nil {
		sk, err := stream.NewSketch(traceKind, opts.Shard, opts.Config)
		if err != nil {
			return WorkerReport{}, err
		}
		w.sketch = sk
	}
	if w.resumed {
		// Re-assert the restored state immediately: if the crash ate the
		// original POST the coordinator accepts it now; if not, the
		// digest makes it a no-op duplicate either way.
		if err := w.publish(ctx, false); err != nil {
			return WorkerReport{}, err
		}
	}

	// The batch size matches the reference pipeline's chunking, so the
	// sketch is byte-identical to a single-shard session over this file.
	batch := make([]stream.Obs, opts.ChunkSize)
	for {
		n, err := src.Next(batch)
		if n > 0 {
			if serr := w.step(ctx, batch[:n]); serr != nil {
				return w.report(), serr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return w.report(), err
		}
	}
	if err := w.publish(ctx, true); err != nil {
		return w.report(), err
	}
	if w.opts.Logger != nil {
		w.opts.Logger.Info("worker finished", "worker", opts.ID, "shard", opts.Shard,
			"records", w.sketch.Records(), "uploads", w.uploads, "state_sha256", w.digest)
	}
	return w.report(), nil
}

func (w *worker) report() WorkerReport {
	return WorkerReport{
		Worker: w.opts.ID, Shard: w.opts.Shard, Records: w.sketch.Records(),
		Epoch: w.epoch, Seq: w.seq, Digest: w.digest,
		Uploads: w.uploads, Resumed: w.resumed, Skipped: w.skipped,
	}
}

// restore loads the checkpoint. A missing file is a fresh start; a
// corrupt or digest-mismatched one is discarded with a warning (the
// worker re-ingests from scratch — slower, never wrong).
func (w *worker) restore(traceKind string) error {
	raw, err := os.ReadFile(w.opts.Checkpoint)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	u, sk, err := decodeCheckpoint(raw)
	if err != nil {
		w.opts.Metrics.Counter("coord.worker.checkpoint.dropped").Inc()
		if w.opts.Logger != nil {
			w.opts.Logger.Warn("checkpoint unreadable; re-ingesting from scratch",
				"path", w.opts.Checkpoint, "error", err.Error())
		}
		return nil
	}
	if u.Worker != w.opts.ID || u.Shard != w.opts.Shard || sk.TraceKind() != traceKind {
		return fmt.Errorf("coord: checkpoint %s belongs to worker %q shard %d (%s); this worker is %q shard %d",
			w.opts.Checkpoint, u.Worker, u.Shard, sk.TraceKind(), w.opts.ID, w.opts.Shard)
	}
	w.sketch = sk
	w.epoch = u.Epoch + 1 // every restart opens a new epoch
	w.seq = 0
	w.skip = u.Records
	w.resumed = true
	w.high = u.WatermarkS
	w.opts.Metrics.Counter("coord.worker.resumes").Inc()
	if w.opts.Logger != nil {
		w.opts.Logger.Info("checkpoint restored", "path", w.opts.Checkpoint,
			"records", u.Records, "epoch", w.epoch)
	}
	return nil
}

// decodeCheckpoint parses and digest-verifies a checkpoint (the same
// schema as an upload).
func decodeCheckpoint(raw []byte) (Upload, *stream.Sketch, error) {
	var u Upload
	if err := json.Unmarshal(raw, &u); err != nil {
		return Upload{}, nil, err
	}
	sk, err := validate(u)
	if err != nil {
		return Upload{}, nil, err
	}
	return u, sk, nil
}

// publish checkpoints (if configured) and uploads the current state.
func (w *worker) publish(ctx context.Context, final bool) error {
	state, err := w.sketch.State()
	if err != nil {
		return err
	}
	w.seq++
	u := Upload{
		Proto: Proto, Worker: w.opts.ID, Shard: w.opts.Shard,
		Epoch: w.epoch, Seq: w.seq, Records: w.sketch.Records(),
		Final: final, WatermarkS: w.high, Pipeline: w.pipeline,
		Digest: Digest(state), State: state,
	}
	if w.opts.Checkpoint != "" {
		if err := writeCheckpoint(w.opts.Checkpoint, u); err != nil {
			return fmt.Errorf("coord: writing checkpoint: %w", err)
		}
		w.opts.Metrics.Counter("coord.worker.checkpoint.writes").Inc()
	}
	rep, err := w.opts.Client.Upload(ctx, u)
	if err != nil {
		return err
	}
	if rep.Status == StatusStale {
		// Another instance of this worker id outranks us — a zombie
		// double-start. Stop rather than fight over the slot.
		return fmt.Errorf("coord: coordinator holds newer state for worker %q (epoch %d seq %d); is another instance running?",
			w.opts.ID, rep.Epoch, rep.Seq)
	}
	w.digest = u.Digest
	w.sinceUpload = 0
	w.uploads++
	w.opts.Metrics.Counter("coord.worker.uploads").Inc()
	if w.opts.Logger != nil {
		w.opts.Logger.Info("state uploaded", "worker", w.opts.ID, "seq", w.seq,
			"records", u.Records, "final", final, "status", rep.Status)
	}
	return nil
}

// step handles one derived batch: replay-skip during resume, then
// observe, then maybe upload. Batches never straddle the skip
// boundary because checkpoints land on batch boundaries.
func (w *worker) step(ctx context.Context, batch []stream.Obs) error {
	if w.skip > 0 {
		n := int64(len(batch))
		if n > w.skip {
			return fmt.Errorf("coord: checkpoint records (%d remaining to skip) not aligned to batch boundary (%d-record batch); was the shard file regenerated with a different chunk size?", w.skip, n)
		}
		w.skip -= n
		w.skipped += n
		return nil
	}
	w.sketch.ObserveBatch(batch)
	w.sinceUpload += int64(len(batch))
	w.opts.Metrics.Counter("coord.worker.records").Add(int64(len(batch)))
	if t := batch[len(batch)-1].Time; t > w.high {
		w.high = t
	}
	w.ingWM.Stamp(w.high)
	if w.opts.IngestDelay > 0 {
		select {
		case <-time.After(w.opts.IngestDelay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if w.opts.UploadEvery > 0 && w.sinceUpload >= w.opts.UploadEvery {
		return w.publish(ctx, false)
	}
	return nil
}

// writeCheckpoint persists an upload atomically.
func writeCheckpoint(path string, u Upload) error {
	return writeJSONAtomic(path, ".worker-ckpt-*", u)
}

// writeJSONAtomic writes v as one JSON line to path through a temp
// file in the same directory and a rename, so a crash mid-write never
// corrupts the previous file.
func writeJSONAtomic(path, tmpPattern string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPattern)
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(raw, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
