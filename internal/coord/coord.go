// Package coord is the scale-out shell around the mergeable stream
// sketches: a coordinator that folds serialized sketch states from N
// distributed workers into one canonical merge, and the worker/client
// side that ships those states over HTTP with crash-safe retry
// semantics.
//
// Paxson & Floyd's burstiness results only emerge at scale — 10⁶+
// records from many concurrent sources — and Clegg et al.
// (arXiv:0910.0144) warn that long-trace conclusions are fragile
// under measurement loss. The distribution layer therefore has to
// prove it loses nothing: every fault a worker crash, duplicate
// delivery or dropped response can introduce must leave the merged
// bytes unchanged.
//
// # The protocol (DESIGN.md §13)
//
// A worker owns one shard of the traffic and one sketch. It
// periodically uploads its FULL serialized sketch state — never a
// delta — stamped with (worker, shard, epoch, seq, digest):
//
//   - digest is the SHA-256 of the state bytes. An upload whose
//     digest matches the worker's last accepted state is a no-op
//     ("duplicate"): re-POSTing after a lost response or a worker
//     restart cannot double-count.
//   - epoch increments on every worker restart; seq increments per
//     upload within an epoch. An upload ordered at or below the
//     worker's latest accepted (epoch, seq) with a different digest
//     is rejected ("stale") — deterministically, regardless of
//     arrival order.
//   - Full-state uploads make acceptance idempotent and commutative
//     per worker: only the newest accepted state matters, so any
//     crash/retry/duplicate schedule that delivers each worker's
//     final state yields the same per-worker inputs.
//
// The merged result is the canonical ascending-shard-index fold of
// the latest accepted state per worker (stream.MergeSketches), so any
// worker-arrival permutation produces byte-identical merged state.
// Missing or stale workers degrade the result to "partial" — served,
// with per-worker staleness accounting, never an error.
package coord

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"time"

	"wantraffic/internal/obs"
	"wantraffic/internal/stream"
)

// Proto is the protocol tag every upload and snapshot carries.
const Proto = "wantraffic-coord/v1"

// Upload verdicts.
const (
	StatusAccepted  = "accepted"
	StatusDuplicate = "duplicate"
	StatusStale     = "stale"
)

// Results completeness states.
const (
	ResultComplete = "complete"
	ResultPartial  = "partial"
	ResultEmpty    = "empty"
)

// Upload is one worker→coordinator state transfer: the worker's full
// serialized sketch plus the ordering and integrity stamps.
type Upload struct {
	Proto   string `json:"proto"`
	Worker  string `json:"worker"`
	Shard   int    `json:"shard"`
	Epoch   int64  `json:"epoch"`
	Seq     int64  `json:"seq"`
	Records int64  `json:"records"`
	Final   bool   `json:"final"`
	// WatermarkS is the worker's event-time high-water mark in trace
	// seconds, and Pipeline the trace framing's pipeline ID. Both are
	// freshness metadata: the digest covers State alone, so old workers
	// that omit them stay protocol-compatible.
	WatermarkS float64         `json:"watermark_s,omitempty"`
	Pipeline   string          `json:"pipeline,omitempty"`
	Digest     string          `json:"digest"`
	State      json.RawMessage `json:"state"`
}

// Digest computes the SHA-256 hex digest of a state blob.
func Digest(state []byte) string {
	sum := sha256.Sum256(state)
	return hex.EncodeToString(sum[:])
}

// Reply is the coordinator's verdict on one upload.
type Reply struct {
	Status string `json:"status"` // accepted | duplicate | stale
	Worker string `json:"worker"`
	// Epoch/Seq echo the worker's latest accepted ordering stamp — on
	// a stale verdict, the stamp that outranked the upload.
	Epoch int64  `json:"epoch"`
	Seq   int64  `json:"seq"`
	Error string `json:"error,omitempty"`
}

// RejectError is a deterministic protocol rejection (malformed
// upload, digest mismatch, shard conflict). It is permanent: clients
// must not retry it.
type RejectError struct{ Msg string }

func (e *RejectError) Error() string { return e.Msg }

func rejectf(format string, args ...any) error {
	return &RejectError{Msg: fmt.Sprintf(format, args...)}
}

// Options configures a Coordinator.
type Options struct {
	// ExpectedWorkers is how many distinct workers must finalize for
	// the run to be complete (0: completeness never asserted — the
	// coordinator serves whatever arrives).
	ExpectedWorkers int
	// StaleAfter is the liveness horizon: a worker whose last upload
	// is older counts as stale in results and gauges (default 10s).
	StaleAfter time.Duration
	// Snapshot, when non-empty, persists the coordinator's state
	// atomically to this path after every accepted upload, so a
	// coordinator restart resumes without re-ingesting.
	Snapshot string
	// Metrics receives coord.* instruments (nil: none).
	Metrics *obs.Registry
	// Bus receives per-worker job_state events (running / stale /
	// resumed / ok) so wanmon watch can follow the fleet live (nil:
	// none).
	Bus *obs.Bus
	// Logger receives structured lifecycle lines (nil: silent).
	Logger *slog.Logger
	// Clock overrides time.Now for liveness and merge-timing
	// bookkeeping (tests).
	Clock func() time.Time
	// Marks, when non-nil, stamps the coord_fold watermark with each
	// accepted upload's event-time mark, and adopts the first
	// non-empty pipeline ID the fleet reports.
	Marks *obs.Watermarks
}

// workerEntry is the latest accepted state of one worker plus its
// delivery accounting.
type workerEntry struct {
	last     Upload
	sketch   *stream.Sketch // restored from last.State at accept time
	lastSeen time.Time

	accepted, duplicates, stale int64

	// staleNotified marks that a "stale" event went out for the current
	// silence, so recovery publishes exactly one "resumed".
	staleNotified bool
}

// publishState emits one per-worker job_state event. Callers hold the
// lock; Bus.Publish never blocks (slow subscribers drop events).
func (c *Coordinator) publishState(ent *workerEntry, state string) {
	c.opts.Bus.Publish(obs.EventJobState, ent.last.Worker, map[string]string{
		"state": state,
		"shard": fmt.Sprint(ent.last.Shard),
		"epoch": fmt.Sprint(ent.last.Epoch),
	})
}

// Coordinator is the merge authority. All methods are safe for
// concurrent use.
type Coordinator struct {
	opts Options

	mu      sync.Mutex
	workers map[string]*workerEntry
	done    chan struct{} // closed when all expected workers finalized
	closed  bool

	accepted, duplicates, staleRej, rejected *obs.Counter
	snapshotWrites, snapshotDropped          *obs.Counter
	reporting, finalized                     *obs.Gauge
	mergeMS                                  *obs.Histogram
}

// New builds a coordinator. If opts.Snapshot names an existing
// snapshot file, its digest-verified entries are restored before the
// first upload arrives.
func New(opts Options) (*Coordinator, error) {
	if opts.StaleAfter <= 0 {
		opts.StaleAfter = 10 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	c := &Coordinator{
		opts:    opts,
		workers: make(map[string]*workerEntry),
		done:    make(chan struct{}),

		accepted:        opts.Metrics.Counter("coord.uploads.accepted"),
		duplicates:      opts.Metrics.Counter("coord.uploads.duplicate"),
		staleRej:        opts.Metrics.Counter("coord.uploads.stale"),
		rejected:        opts.Metrics.Counter("coord.uploads.rejected"),
		snapshotWrites:  opts.Metrics.Counter("coord.snapshot.writes"),
		snapshotDropped: opts.Metrics.Counter("coord.snapshot.dropped"),
		reporting:       opts.Metrics.Gauge("coord.workers.reporting"),
		finalized:       opts.Metrics.Gauge("coord.workers.final"),
		mergeMS:         opts.Metrics.Histogram("coord.merge_ms", nil),
	}
	if opts.Snapshot != "" {
		if err := c.restoreSnapshot(opts.Snapshot); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// validWorkerID keeps worker names safe for metric names and logs.
func validWorkerID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// validate applies the upload's protocol checks. Called without the
// lock (digest hashing and state restore are the expensive parts).
func validate(u Upload) (*stream.Sketch, error) {
	if u.Proto != Proto {
		return nil, rejectf("proto %q, want %q", u.Proto, Proto)
	}
	if !validWorkerID(u.Worker) {
		return nil, rejectf("invalid worker id %q (want 1-64 chars of [A-Za-z0-9_-])", u.Worker)
	}
	if u.Shard < 0 {
		return nil, rejectf("negative shard %d", u.Shard)
	}
	if u.Epoch < 1 || u.Seq < 1 {
		return nil, rejectf("epoch/seq must be >= 1, got %d/%d", u.Epoch, u.Seq)
	}
	if got := Digest(u.State); got != u.Digest {
		return nil, rejectf("state digest mismatch: body hashes to %.12s.., header claims %.12s.. (corrupt transfer)", got, u.Digest)
	}
	sk, err := stream.RestoreSketch(u.State)
	if err != nil {
		return nil, rejectf("state does not restore: %v", err)
	}
	if sk.Records() != u.Records {
		return nil, rejectf("state holds %d records, header claims %d", sk.Records(), u.Records)
	}
	return sk, nil
}

// newer reports whether (e2, s2) outranks (e1, s1).
func newer(e1, s1, e2, s2 int64) bool {
	return e2 > e1 || (e2 == e1 && s2 > s1)
}

// Apply runs one upload through the acceptance state machine. The
// returned error is always a *RejectError (permanent, do not retry);
// ordering conflicts are expressed through Reply.Status instead.
func (c *Coordinator) Apply(u Upload) (Reply, error) {
	sk, err := validate(u)
	if err != nil {
		c.rejected.Inc()
		if c.opts.Logger != nil {
			c.opts.Logger.Warn("upload rejected", "worker", u.Worker, "error", err.Error())
		}
		return Reply{}, err
	}
	now := c.opts.Clock()

	c.mu.Lock()
	defer c.mu.Unlock()
	ent := c.workers[u.Worker]
	if ent == nil {
		if err := c.admitLocked(u, sk); err != nil {
			c.rejected.Inc()
			return Reply{}, err
		}
		ent = &workerEntry{}
		c.workers[u.Worker] = ent
		ent.last = u
		ent.sketch = sk
		return c.accept(ent, u, now), nil
	}

	if u.Shard != ent.last.Shard {
		c.rejected.Inc()
		return Reply{}, rejectf("worker %q changed shard %d -> %d", u.Worker, ent.last.Shard, u.Shard)
	}
	if u.Digest == ent.last.Digest {
		// Identical state: idempotent no-op. Advance the ordering stamp
		// if the duplicate carries a newer one (a restarted worker
		// re-sending its checkpointed state under a new epoch).
		ent.duplicates++
		c.duplicates.Inc()
		ent.lastSeen = now
		if newer(ent.last.Epoch, ent.last.Seq, u.Epoch, u.Seq) {
			ent.last.Epoch, ent.last.Seq = u.Epoch, u.Seq
			ent.last.Final = ent.last.Final || u.Final
			// A duplicate under a newer epoch is a restarted worker
			// re-asserting its checkpoint: the fleet view shows recovery.
			ent.staleNotified = false
			state := "resumed"
			if ent.last.Final {
				state = "ok"
			}
			c.publishState(ent, state)
			c.checkComplete()
		}
		return Reply{Status: StatusDuplicate, Worker: u.Worker, Epoch: ent.last.Epoch, Seq: ent.last.Seq}, nil
	}
	if !newer(ent.last.Epoch, ent.last.Seq, u.Epoch, u.Seq) {
		// Out-of-order delivery of an older state, or a zombie instance
		// of a restarted worker: rejected the same way every time.
		ent.stale++
		c.staleRej.Inc()
		return Reply{Status: StatusStale, Worker: u.Worker, Epoch: ent.last.Epoch, Seq: ent.last.Seq}, nil
	}
	ent.last = u
	ent.sketch = sk
	return c.accept(ent, u, now), nil
}

// admitLocked is the first-contact check a worker's first state
// passes, from an upload or a snapshot entry: its shard slot is
// unowned, and its trace kind matches the cohort's. Callers hold the
// lock.
func (c *Coordinator) admitLocked(u Upload, sk *stream.Sketch) error {
	for id, other := range c.workers {
		if other.last.Shard == u.Shard {
			return rejectf("shard %d already owned by worker %q", u.Shard, id)
		}
		if other.sketch.TraceKind() != sk.TraceKind() {
			return rejectf("trace kind %q, cohort ingests %q", sk.TraceKind(), other.sketch.TraceKind())
		}
	}
	return nil
}

// accept finishes an accepted upload under the lock.
func (c *Coordinator) accept(ent *workerEntry, u Upload, now time.Time) Reply {
	ent.lastSeen = now
	ent.accepted++
	c.accepted.Inc()
	if u.WatermarkS > 0 {
		c.opts.Marks.Stage(obs.StageCoordFold).Stamp(u.WatermarkS)
	}
	c.opts.Marks.SetPipeline(u.Pipeline)
	state := "running"
	if ent.staleNotified {
		state = "resumed"
		ent.staleNotified = false
	}
	if u.Final {
		state = "ok"
	}
	c.publishState(ent, state)
	c.refreshCohortGaugesLocked()
	c.checkComplete()
	if c.opts.Logger != nil {
		c.opts.Logger.Info("upload accepted", "worker", u.Worker, "shard", u.Shard,
			"epoch", u.Epoch, "seq", u.Seq, "records", u.Records, "final", u.Final)
	}
	if c.opts.Snapshot != "" {
		if err := c.writeSnapshotLocked(); err != nil && c.opts.Logger != nil {
			c.opts.Logger.Warn("snapshot write failed", "path", c.opts.Snapshot, "error", err.Error())
		}
	}
	return Reply{Status: StatusAccepted, Worker: u.Worker, Epoch: u.Epoch, Seq: u.Seq}
}

// checkComplete closes done once every expected worker is final.
// Callers hold the lock.
func (c *Coordinator) checkComplete() {
	if c.closed || c.opts.ExpectedWorkers <= 0 {
		return
	}
	finals := 0
	for _, ent := range c.workers {
		if ent.last.Final {
			finals++
		}
	}
	if finals >= c.opts.ExpectedWorkers {
		c.closed = true
		close(c.done)
	}
}

// Done is closed once ExpectedWorkers distinct workers have uploaded
// final states. With ExpectedWorkers <= 0 it never closes.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Complete reports whether every expected worker has finalized.
func (c *Coordinator) Complete() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// WorkerStatus is the per-worker block of Results.
type WorkerStatus struct {
	Worker  string  `json:"worker"`
	Shard   int     `json:"shard"`
	Epoch   int64   `json:"epoch"`
	Seq     int64   `json:"seq"`
	Records int64   `json:"records"`
	Final   bool    `json:"final"`
	Digest  string  `json:"digest"`
	AgeS    float64 `json:"age_s"` // seconds since last accepted/duplicate upload
	Stale   bool    `json:"stale"` // AgeS > StaleAfter and not final
	// WatermarkS is the worker's reported event-time high water (0 for
	// workers that predate watermark stamping).
	WatermarkS float64 `json:"watermark_s,omitempty"`

	Uploads    int64 `json:"uploads"`
	Duplicates int64 `json:"duplicates,omitempty"`
	StaleRej   int64 `json:"stale_rejected,omitempty"`
}

// Results is the coordinator's combined answer: the canonical merge
// over the latest accepted state per worker, plus the degradation
// accounting that tells a consumer how much of the fleet it covers.
type Results struct {
	Proto     string          `json:"proto"`
	Status    string          `json:"status"` // complete | partial | empty
	Expected  int             `json:"expected_workers"`
	Reporting int             `json:"reporting_workers"`
	Finalized int             `json:"finalized_workers"`
	Records   int64           `json:"records"`
	Digest    string          `json:"merged_sha256,omitempty"`
	Summary   *stream.Summary `json:"summary,omitempty"`
	Workers   []WorkerStatus  `json:"workers"`
}

// entriesLocked returns the entries sorted by shard. Callers hold
// the lock.
func (c *Coordinator) entriesLocked() []*workerEntry {
	ents := make([]*workerEntry, 0, len(c.workers))
	for _, ent := range c.workers {
		ents = append(ents, ent)
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].last.Shard < ents[j].last.Shard })
	return ents
}

// Merged computes the canonical merge of the latest accepted states
// and returns its serialized bytes and digest. With no workers it
// returns (nil, "", nil).
func (c *Coordinator) Merged() ([]byte, string, error) {
	c.mu.Lock()
	ents := c.entriesLocked()
	sketches := make([]*stream.Sketch, len(ents))
	for i, ent := range ents {
		sketches[i] = ent.sketch
	}
	c.mu.Unlock()
	if len(sketches) == 0 {
		return nil, "", nil
	}
	_, state, err := c.merge(sketches)
	if err != nil {
		return nil, "", err
	}
	return state, Digest(state), nil
}

// merge is the canonical merge behind Merged and Results, timed into
// coord.merge_ms: it returns the merged sketch and its serialized
// bytes. MergeSketches clones; the entries' sketches are never
// mutated, so callers release the lock before merging (entries are
// replaced wholesale, not updated in place).
func (c *Coordinator) merge(sketches []*stream.Sketch) (*stream.Sketch, []byte, error) {
	start := c.opts.Clock()
	merged, err := stream.MergeSketches(sketches)
	c.mergeMS.Observe(float64(c.opts.Clock().Sub(start)) / float64(time.Millisecond))
	if err != nil {
		return nil, nil, err
	}
	state, err := merged.State()
	if err != nil {
		return nil, nil, err
	}
	return merged, state, nil
}

// Results assembles the combined results block.
func (c *Coordinator) Results() (*Results, error) {
	now := c.opts.Clock()
	c.mu.Lock()
	ents := c.entriesLocked()
	res := &Results{
		Proto:    Proto,
		Expected: c.opts.ExpectedWorkers,
		Workers:  make([]WorkerStatus, 0, len(ents)),
	}
	sketches := make([]*stream.Sketch, 0, len(ents))
	for _, ent := range ents {
		age := now.Sub(ent.lastSeen).Seconds()
		ws := WorkerStatus{
			Worker: ent.last.Worker, Shard: ent.last.Shard,
			Epoch: ent.last.Epoch, Seq: ent.last.Seq,
			Records: ent.last.Records, Final: ent.last.Final,
			Digest: ent.last.Digest, AgeS: age,
			Stale:      !ent.last.Final && age > c.opts.StaleAfter.Seconds(),
			WatermarkS: ent.last.WatermarkS,
			Uploads:    ent.accepted, Duplicates: ent.duplicates, StaleRej: ent.stale,
		}
		res.Workers = append(res.Workers, ws)
		res.Records += ent.last.Records
		if ent.last.Final {
			res.Finalized++
		}
		sketches = append(sketches, ent.sketch)
	}
	res.Reporting = len(res.Workers)
	c.mu.Unlock()

	switch {
	case res.Reporting == 0:
		res.Status = ResultEmpty
		return res, nil
	case res.Expected > 0 && res.Finalized >= res.Expected:
		res.Status = ResultComplete
	default:
		res.Status = ResultPartial
	}
	merged, state, err := c.merge(sketches)
	if err != nil {
		return nil, err
	}
	res.Digest = Digest(state)
	sum := merged.Summarize()
	res.Summary = &sum
	return res, nil
}

// RefreshGauges publishes the liveness gauges: per-worker staleness
// and live/final flags plus cohort totals. Called from a ticker by
// the serving tool; deterministic tests drive it with a fixed clock.
func (c *Coordinator) RefreshGauges() {
	if c.opts.Metrics == nil && c.opts.Bus == nil {
		return
	}
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, ent := range c.workers {
		age := now.Sub(ent.lastSeen).Seconds()
		if !ent.last.Final && age > c.opts.StaleAfter.Seconds() && !ent.staleNotified {
			ent.staleNotified = true
			c.publishState(ent, "stale")
		}
		c.opts.Metrics.Gauge("coord.worker." + id + ".staleness_s").Set(age)
		live := 0.0
		if ent.last.Final || age <= c.opts.StaleAfter.Seconds() {
			live = 1
		}
		c.opts.Metrics.Gauge("coord.worker." + id + ".live").Set(live)
		c.opts.Metrics.Gauge("coord.worker." + id + ".records").Set(float64(ent.last.Records))
		final := 0.0
		if ent.last.Final {
			final = 1
		}
		c.opts.Metrics.Gauge("coord.worker." + id + ".final").Set(final)
	}
	c.refreshCohortGaugesLocked()
}

func (c *Coordinator) refreshCohortGaugesLocked() {
	finals := 0
	for _, ent := range c.workers {
		if ent.last.Final {
			finals++
		}
	}
	c.reporting.Set(float64(len(c.workers)))
	c.finalized.Set(float64(finals))
}

// snapshotFile is the persisted coordinator state: the latest
// accepted upload per worker, shard-sorted. Delivery accounting and
// liveness times deliberately stay out — a restored coordinator
// starts its liveness clock fresh.
type snapshotFile struct {
	Proto   string   `json:"proto"`
	Workers []Upload `json:"workers"`
}

// writeSnapshotLocked persists the state atomically, the same
// discipline as the runner checkpointer: a crash mid-write never
// corrupts the previous snapshot.
func (c *Coordinator) writeSnapshotLocked() error {
	snap := snapshotFile{Proto: Proto}
	for _, ent := range c.entriesLocked() {
		snap.Workers = append(snap.Workers, ent.last)
	}
	if err := writeJSONAtomic(c.opts.Snapshot, ".coord-snap-*", snap); err != nil {
		return err
	}
	c.snapshotWrites.Inc()
	return nil
}

// Snapshot forces a snapshot write (no-op without a configured path).
func (c *Coordinator) Snapshot() error {
	if c.opts.Snapshot == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeSnapshotLocked()
}

// restoreSnapshot loads a snapshot written by a previous coordinator
// process. Every entry is digest-pinned and admitted as a first
// upload would be: an entry whose state bytes do not hash to its
// recorded digest, that does not restore, that claims an earlier
// entry's shard, or whose trace kind differs from the earlier
// entries', is dropped with a warning (the worker will re-upload
// idempotently). A missing
// file is a fresh start; an unparsable file degrades to a fresh start
// with a warning, because workers re-POSTing their full state can
// always rebuild the coordinator.
func (c *Coordinator) restoreSnapshot(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var snap snapshotFile
	if err := json.Unmarshal(raw, &snap); err != nil || snap.Proto != Proto {
		c.snapshotDropped.Inc()
		if c.opts.Logger != nil {
			c.opts.Logger.Warn("snapshot unreadable; starting fresh (workers will re-upload)",
				"path", path, "error", fmt.Sprint(err))
		}
		return nil
	}
	now := c.opts.Clock()
	for _, u := range snap.Workers {
		sk, err := validate(u)
		if err == nil {
			err = c.admitLocked(u, sk)
		}
		if err != nil {
			c.snapshotDropped.Inc()
			if c.opts.Logger != nil {
				c.opts.Logger.Warn("snapshot entry dropped", "worker", u.Worker, "error", err.Error())
			}
			continue
		}
		c.workers[u.Worker] = &workerEntry{last: u, sketch: sk, lastSeen: now}
	}
	c.refreshCohortGaugesLocked()
	c.checkComplete()
	if c.opts.Logger != nil {
		c.opts.Logger.Info("snapshot restored", "path", path, "workers", len(c.workers))
	}
	return nil
}
