package stream

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"wantraffic/internal/obs"
	"wantraffic/internal/par"
	"wantraffic/internal/trace"
)

// Pipeline defaults. Both are pinned into the observation→shard
// assignment, so changing them changes which shard sees which record —
// callers that need byte-reproducible sketches across runs (the
// golden corpus) must hold them fixed.
const (
	// DefaultShards is the shard count. Four is deliberately NOT tied
	// to GOMAXPROCS: the decomposition must be identical on a laptop
	// and a 64-core box for merged state to be comparable.
	DefaultShards = 4
	// DefaultChunkSize is the number of observations per fan-out
	// chunk. Chunk i goes to shard i mod Shards, so the assignment is
	// a pure function of record position.
	DefaultChunkSize = 512
)

// PipelineOptions configures a sharded ingest.
type PipelineOptions struct {
	// Shards is the number of sketch shards (DefaultShards when < 1).
	Shards int
	// ChunkSize is the observations-per-chunk fan-out granularity
	// (DefaultChunkSize when < 1).
	ChunkSize int
	// ShardOffset offsets the sketches' shard indices: shard i is
	// created as NewSketch(kind, ShardOffset+i, ...). A distributed
	// worker uses it to stamp its single-shard session with its global
	// shard position, so the coordinator's canonical (ascending-index)
	// merge reproduces the fold a single process over the same shard
	// decomposition would compute. It also feeds the per-(shard,
	// dimension) reservoir sub-seeds, keeping distributed samples
	// byte-identical to the single-process reference.
	ShardOffset int
	// Config parameterizes the per-shard sketches.
	Config Config
	// Metrics, when non-nil, accumulates stream.* instruments: run
	// totals (stream.records, stream.chunks, stream.shards), the live
	// ingest counter the progress ticker and /metrics read mid-run
	// (stream.records.ingested), per-shard work accounting
	// (stream.shard<i>.records, stream.shard<i>.bytes; decode skips
	// stay global under trace.records.skipped because records are
	// dropped before shard assignment), fan-out health gauges
	// (stream.queue.depth, stream.shards.inflight) and the merge-phase
	// duration histogram (stream.merge_ms).
	Metrics *obs.Registry
	// Marks, when non-nil, stamps event-time watermarks at the stage
	// boundaries this pipeline owns: ingest as each batch leaves the
	// scanner, shard_drain as each shard folds one, plus the pipeline
	// ID propagated in the trace header (first non-empty wins).
	Marks *obs.Watermarks
}

func (o PipelineOptions) withDefaults() PipelineOptions {
	if o.Shards < 1 {
		o.Shards = DefaultShards
	}
	if o.ChunkSize < 1 {
		o.ChunkSize = DefaultChunkSize
	}
	return o
}

// Result is a completed (or, on decode error, partial) ingest: the
// canonically merged sketch plus the trace header and the exact
// decode accounting from the scanner.
type Result struct {
	Sketch *Sketch
	Header trace.Header
	Stats  trace.DecodeStats
	Shards int
}

// obsBatch is the pooled fan-out unit shipped from the reader
// goroutine to a shard worker. The pointer wrapper keeps sync.Pool
// round-trips allocation-free (a bare slice would be boxed on Put).
type obsBatch struct {
	obs []Obs
}

// obsBatchPool recycles fan-out batches: the reader goroutine fills
// one with Source.Next, a shard worker folds it and puts it back. Only
// batch.obs[:n] of a filled batch is ever read, so recycled (or even
// poisoned) contents can never leak into results.
var obsBatchPool = sync.Pool{New: func() any { return new(obsBatch) }}

// Session is a persistent sharded sketch set: each ingest call
// streams one trace (or trace fragment) through the fan-out and folds
// it into the same per-shard sketches, so a long-running consumer (a
// daemon draining trace segments, the steady-state benchmarks)
// amortizes sketch construction and merging across many reads.
// Merged snapshots the canonical fold at any point. A Session is not
// safe for concurrent use; calls must be sequential.
type Session struct {
	popts  PipelineOptions
	kind   string
	shards []*Sketch
	chunks int64
	// br is reused by IngestReader across calls. It holds
	// trace.HandoffSize bytes, so NewSource adopts it as its buffer.
	br *bufio.Reader
}

// NewSession builds a session for the given trace kind (ConnSketch or
// PacketSketch).
func NewSession(traceKind string, popts PipelineOptions) (*Session, error) {
	popts = popts.withDefaults()
	shards := make([]*Sketch, popts.Shards)
	for i := range shards {
		s, err := NewSketch(traceKind, popts.ShardOffset+i, popts.Config)
		if err != nil {
			return nil, err
		}
		shards[i] = s
	}
	return &Session{popts: popts, kind: traceKind, shards: shards}, nil
}

// Records returns the total records folded in across all calls.
func (s *Session) Records() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.Records()
	}
	return n
}

// IngestReader streams one trace through the session, auto-detecting
// kind and encoding from the header; the kind must match the
// session's. It returns the trace header and the exact decode
// accounting; on a decode error the records decoded before the
// failure are already folded in (the chaos-harness contract: faults
// degrade coverage, never correctness).
func (s *Session) IngestReader(ctx context.Context, r io.Reader, dopts trace.DecodeOptions) (trace.Header, trace.DecodeStats, error) {
	if s.br == nil {
		s.br = bufio.NewReaderSize(r, trace.HandoffSize)
	} else {
		s.br.Reset(r)
	}
	src, err := NewSource(s.br, dopts)
	if err != nil {
		return trace.Header{}, trace.DecodeStats{}, err
	}
	return s.IngestSource(ctx, src)
}

// IngestSource streams an opened Source through the session's sharded
// fan-out; IngestReader is this over a fresh Source. The source's kind
// must match the session's.
//
// One reader goroutine fills pooled batches of ChunkSize observations
// with Source.Next (interarrival gaps need the previous record, so the
// derivation cannot itself be sharded) and deals batch i to shard
// i mod Shards — Next returns short batches only at end of stream, so
// batch boundaries fall every ChunkSize kept records, exactly where
// the record-at-a-time path flushed its chunks. Every shard is drained
// by its own goroutine (par.ForEach with one worker per shard — fewer
// would deadlock against the bounded channels), each folding batches
// into its private sketch via ObserveBatch and recycling them: no
// cross-goroutine float reduction ever happens, per the repo
// determinism rule, and the batch→shard assignment is position-based,
// so each shard's observation subsequence — and therefore its sketch —
// is independent of scheduling.
func (s *Session) IngestSource(ctx context.Context, src *Source) (trace.Header, trace.DecodeStats, error) {
	hdr := src.Header()
	if src.SketchKind() != s.kind {
		return hdr, src.Stats(), fmt.Errorf("stream: %v trace fed to %s session", hdr.Kind, s.kind)
	}
	popts := s.popts
	popts.Marks.SetPipeline(hdr.PipelineID)
	ctx, span := obs.StartSpan(ctx, "stream.ingest")
	defer span.End()
	span.SetAttr("kind", s.kind)
	span.SetAttrInt("shards", int64(popts.Shards))

	chans := make([]chan *obsBatch, popts.Shards)
	for i := range chans {
		chans[i] = make(chan *obsBatch, 2)
	}

	// Live instruments, resolved once outside the hot loops. All of
	// them no-op on a nil registry (nil-receiver semantics), so the
	// uninstrumented path pays only a few nil checks per batch.
	ingested := popts.Metrics.Counter("stream.records.ingested")
	queueDepth := popts.Metrics.Gauge("stream.queue.depth")
	inflight := popts.Metrics.Gauge("stream.shards.inflight")
	// Watermarks stamp per batch, not per record: one atomic max (and a
	// clock read only when the mark advances) every ChunkSize records.
	ingestWM := popts.Marks.Stage(obs.StageIngest)
	drainWM := popts.Marks.Stage(obs.StageShardDrain)

	var readErr error
	go func() {
		defer func() {
			for _, ch := range chans {
				close(ch)
			}
		}()
		for next := 0; ; {
			b := obsBatchPool.Get().(*obsBatch)
			n, err := src.Next(grow(&b.obs, popts.ChunkSize))
			if n > 0 {
				b.obs = b.obs[:n]
				ingestWM.Stamp(b.obs[n-1].Time)
				chans[next%popts.Shards] <- b
				next++
				s.chunks++
				ingested.Add(int64(n))
				depth := 0
				for _, ch := range chans {
					depth += len(ch)
				}
				queueDepth.Set(float64(depth))
			} else {
				obsBatchPool.Put(b)
			}
			if err != nil {
				if err != io.EOF {
					readErr = err
				}
				return
			}
		}
	}()

	par.ForEach(popts.Shards, popts.Shards, func(sh int) {
		_, sp := obs.StartSpan(ctx, "stream.shard")
		defer sp.End()
		sp.SetAttrInt("shard", int64(sh))
		inflight.Add(1)
		defer inflight.Add(-1)
		var records int64
		var bytes float64
		for b := range chans[sh] {
			s.shards[sh].ObserveBatch(b.obs)
			records += int64(len(b.obs))
			for _, o := range b.obs {
				bytes += o.Value
			}
			drainWM.Stamp(b.obs[len(b.obs)-1].Time)
			obsBatchPool.Put(b)
		}
		sp.SetAttrInt("records", s.shards[sh].Records())
		if popts.Metrics != nil {
			// Per-call deltas, so a reused session's counters stay
			// additive across ingest calls.
			popts.Metrics.Counter(fmt.Sprintf("stream.shard%d.records", sh)).Add(records)
			popts.Metrics.Counter(fmt.Sprintf("stream.shard%d.bytes", sh)).Add(int64(bytes))
		}
	})
	queueDepth.Set(0)
	return hdr, src.Stats(), readErr
}

// Merged snapshots the canonical cross-shard fold: shards are merged
// in ascending shard index regardless of arrival order, so the result
// is byte-identical under any shard-completion permutation. The shard
// sketches are not modified; Merged may be called repeatedly as the
// session keeps ingesting.
func (s *Session) Merged(ctx context.Context) (*Sketch, error) {
	_, msp := obs.StartSpan(ctx, "stream.merge")
	defer msp.End()
	mergeMS := s.popts.Metrics.Histogram("stream.merge_ms", nil)
	start := time.Now()
	merged, err := MergeSketches(s.shards)
	mergeMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	return merged, err
}

// Ingest streams a trace of either kind and either encoding through
// a fresh sharded session, auto-detecting the format from the header.
// On a decode error (strict-mode malformed record, truncated stream,
// resource-limit violation) it still returns the merged sketch over
// every record decoded before the failure, with DecodeStats accounting
// for the partial read, alongside the error — the chaos-harness
// contract: faults degrade coverage, never correctness. A header that
// does not parse returns no result.
func Ingest(ctx context.Context, r io.Reader, dopts trace.DecodeOptions, popts PipelineOptions) (*Result, error) {
	src, err := NewSource(r, dopts)
	if err != nil {
		return nil, err
	}
	sess, err := NewSession(src.SketchKind(), popts)
	if err != nil {
		return nil, err
	}
	hdr, dstats, readErr := sess.IngestSource(ctx, src)
	return sess.finish(ctx, hdr, dstats, readErr)
}

// finish merges the session's shards, publishes the run totals, and
// assembles the Result — returned even when the read failed, so
// partial ingests keep their coverage.
func (s *Session) finish(ctx context.Context, hdr trace.Header, dstats trace.DecodeStats, readErr error) (*Result, error) {
	merged, err := s.Merged(ctx)
	if err != nil {
		return nil, err
	}
	if s.popts.Metrics != nil {
		s.popts.Metrics.Counter("stream.records").Add(merged.Records())
		s.popts.Metrics.Counter("stream.chunks").Add(s.chunks)
		s.popts.Metrics.Counter("stream.shards").Add(int64(s.popts.Shards))
	}
	res := &Result{Sketch: merged, Header: hdr, Stats: dstats, Shards: s.popts.Shards}
	if readErr != nil {
		return res, readErr
	}
	return res, nil
}
