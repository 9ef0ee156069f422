// Package chaos drives the trace codecs and the experiment pipeline
// under systematic fault injection (internal/fault): truncation,
// bit flips, short reads, record drops and injected I/O errors on
// ingestion; panics, timeouts and interruptions in the runner. It is
// shared by the chaos test suite (run under -race in CI) and by
// `paperfig -chaos`, the operational smoke check.
//
// The contract it enforces, from the ISSUE's resilience goals: no
// fault-injected input may panic a decoder or force unbounded
// allocation; lenient decodes must account for every skipped record;
// the runner must retry panics (not timeouts), isolate failures, and
// keep checkpoint files loadable at every instant.
package chaos

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"wantraffic/internal/fault"
	"wantraffic/internal/obs"
	"wantraffic/internal/runner"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// Report summarizes a chaos run.
type Report struct {
	Cases    int      // fault scenarios executed
	Decodes  int      // decode attempts across codecs and modes
	Failures []string // invariant violations (empty = pass)

	reg *obs.Registry // optional; threads into fault plans and decodes
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// String renders a one-line summary plus any failures.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d cases, %d decodes, %d failures\n", r.Cases, r.Decodes, len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAIL: %s\n", f)
	}
	return b.String()
}

func (r *Report) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// Run executes the full chaos suite: `cases` fault scenarios per
// codec (seeded deterministically from seed) plus the runner
// resilience checks.
func Run(seed int64, cases int) *Report {
	return RunWith(seed, cases, nil)
}

// RunWith is Run with a metrics registry: the suite's own tallies
// land in chaos.* counters, the fault plans it injects count their
// injections in fault.* counters, and the decodes record trace.*
// decode metrics — so a `paperfig -chaos -metrics-out` run shows the
// whole fault surface. A nil registry no-ops.
func RunWith(seed int64, cases int, reg *obs.Registry) *Report {
	rep := &Report{reg: reg}
	ingestionChaos(rep, seed, cases)
	streamChaos(rep, seed+1, cases)
	pipelineChaos(rep)
	reg.Counter("chaos.cases").Add(int64(rep.Cases))
	reg.Counter("chaos.decodes").Add(int64(rep.Decodes))
	reg.Counter("chaos.failures").Add(int64(len(rep.Failures)))
	return rep
}

// sampleTraces builds the clean inputs each scenario corrupts.
func sampleTraces(rng *rand.Rand) (*trace.ConnTrace, *trace.PacketTrace) {
	ct := &trace.ConnTrace{Name: "chaos-conn", Horizon: 3600}
	protos := []trace.Protocol{trace.Telnet, trace.FTPData, trace.SMTP, trace.NNTP}
	for i := 0; i < 200; i++ {
		ct.Conns = append(ct.Conns, trace.Conn{
			Start:     rng.Float64() * 3600,
			Duration:  rng.ExpFloat64() * 30,
			Proto:     protos[rng.Intn(len(protos))],
			BytesOrig: rng.Int63n(1 << 20),
			BytesResp: rng.Int63n(1 << 24),
			SessionID: int64(rng.Intn(20)),
		})
	}
	ct.SortByStart()
	pt := &trace.PacketTrace{Name: "chaos-pkt", Horizon: 600}
	for i := 0; i < 400; i++ {
		pt.Packets = append(pt.Packets, trace.Packet{
			Time:   rng.Float64() * 600,
			Size:   1 + rng.Intn(1460),
			Proto:  protos[rng.Intn(len(protos))],
			ConnID: int64(rng.Intn(50)),
		})
	}
	pt.SortByTime()
	return ct, pt
}

// plans enumerates the fault scenarios for one case seed. The
// registry (may be nil) makes each plan count its injections.
func plans(rng *rand.Rand, inputLen int, reg *obs.Registry) []fault.Plan {
	n := int64(inputLen)
	if n < 2 {
		n = 2
	}
	seed := rng.Int63()
	return []fault.Plan{
		{Seed: seed, TruncateAfter: 1 + rng.Int63n(n), Metrics: reg},
		{Seed: seed, BitFlipRate: 0.001 + rng.Float64()*0.05, ShortReads: true, Metrics: reg},
		{Seed: seed, DropLineRate: 0.05 + rng.Float64()*0.5, KeepFirstLine: rng.Intn(2) == 0, Metrics: reg},
		{Seed: seed, FailAfter: 1 + rng.Int63n(n), Metrics: reg},
		{Seed: seed, TruncateAfter: 1 + rng.Int63n(n), BitFlipRate: 0.01, ShortReads: true, Metrics: reg},
	}
}

// encoded is one clean trace encoding the scenarios corrupt.
type encoded struct {
	name string
	conn bool // a connection trace, else a packet trace
	data []byte
}

// encodings writes both sample traces in both encodings.
func encodings(ct *trace.ConnTrace, pt *trace.PacketTrace) ([]encoded, error) {
	var out []encoded
	for _, binary := range []bool{false, true} {
		suffix := "-text"
		if binary {
			suffix = "-bin"
		}
		var conn, pkt bytes.Buffer
		if err := trace.WriteConnTrace(&conn, ct, binary); err != nil {
			return nil, err
		}
		if err := trace.WritePacketTrace(&pkt, pt, binary); err != nil {
			return nil, err
		}
		out = append(out, encoded{"conn" + suffix, true, conn.Bytes()}, encoded{"pkt" + suffix, false, pkt.Bytes()})
	}
	return out, nil
}

// decode reads a fault-injected input with the reader for its kind and
// returns how many records the trace holds.
func decode(in encoded, p fault.Plan, opts trace.DecodeOptions) (int, trace.DecodeStats, error) {
	r := fault.NewReader(bytes.NewReader(in.data), p)
	if in.conn {
		t, stats, err := trace.ReadConnTrace(r, opts)
		if t == nil {
			return 0, stats, err
		}
		return len(t.Conns), stats, err
	}
	t, stats, err := trace.ReadPacketTrace(r, opts)
	if t == nil {
		return 0, stats, err
	}
	return len(t.Packets), stats, err
}

// ingestionChaos corrupts encoded traces every way the fault package
// knows and checks the decode invariants in both modes. Panics are
// caught and reported as failures, never propagated.
func ingestionChaos(rep *Report, seed int64, cases int) {
	rng := rand.New(rand.NewSource(seed))
	ct, pt := sampleTraces(rng)
	inputs, err := encodings(ct, pt)
	if err != nil {
		rep.failf("encoding clean trace: %v", err)
		return
	}

	for c := 0; c < cases; c++ {
		for _, in := range inputs {
			for _, plan := range plans(rng, len(in.data), rep.reg) {
				rep.Cases++
				for _, lenient := range []bool{false, true} {
					rep.Decodes++
					func() {
						defer func() {
							if r := recover(); r != nil {
								rep.failf("%s seed=%d lenient=%v: decoder panic: %v", in.name, plan.Seed, lenient, r)
							}
						}()
						opts := trace.DecodeOptions{Lenient: lenient, MaxRecords: 1 << 20, Metrics: rep.reg}
						kept, stats, err := decode(in, plan, opts)
						if err != nil {
							return // clean rejection is always acceptable
						}
						if lenient && stats.RecordsKept != kept {
							rep.failf("%s seed=%d: lenient stats claim %d kept, trace holds %d",
								in.name, plan.Seed, stats.RecordsKept, kept)
						}
					}()
				}
			}
		}
		// Write-side faults: encoders must surface injected errors,
		// never panic or loop.
		p := fault.Plan{Seed: rng.Int63(), FailAfter: 1 + rng.Int63n(int64(len(inputs[0].data)))}
		rep.Cases++
		func() {
			defer func() {
				if r := recover(); r != nil {
					rep.failf("conn-text encode seed=%d: writer panic: %v", p.Seed, r)
				}
			}()
			if err := trace.WriteConnTrace(fault.NewWriter(&discard{}, p), ct, false); err == nil {
				rep.failf("conn-text encode seed=%d: injected write error swallowed", p.Seed)
			}
		}()
	}
}

// streamChaos runs the sharded streaming pipeline (internal/stream)
// over the same corrupted inputs. The contract extends the ingestion
// invariants across the fan-out: no fault may panic or deadlock the
// pipeline; whatever the fault, the merged sketch must cover exactly
// the records the decoder kept (one observation per kept record, even
// when ingest aborts mid-stream); and the partial sketch must still
// serialize and round-trip byte-identically.
func streamChaos(rep *Report, seed int64, cases int) {
	rng := rand.New(rand.NewSource(seed))
	ct, pt := sampleTraces(rng)
	inputs, err := encodings(ct, pt)
	if err != nil {
		rep.failf("stream: encoding clean trace: %v", err)
		return
	}

	for c := 0; c < cases; c++ {
		for _, in := range inputs {
			for _, plan := range plans(rng, len(in.data), rep.reg) {
				rep.Cases++
				for _, lenient := range []bool{false, true} {
					rep.Decodes++
					func() {
						defer func() {
							if r := recover(); r != nil {
								rep.failf("stream %s seed=%d lenient=%v: pipeline panic: %v", in.name, plan.Seed, lenient, r)
							}
						}()
						opts := trace.DecodeOptions{Lenient: lenient, MaxRecords: 1 << 20, Metrics: rep.reg}
						res, err := stream.Ingest(context.Background(),
							fault.NewReader(bytes.NewReader(in.data), plan), opts,
							stream.PipelineOptions{Shards: 3, ChunkSize: 64, Metrics: rep.reg})
						if res == nil {
							if err == nil {
								rep.failf("stream %s seed=%d: nil result without error", in.name, plan.Seed)
							}
							return // header-level rejection, nothing ingested
						}
						if got, want := res.Sketch.Records(), int64(res.Stats.RecordsKept); got != want {
							rep.failf("stream %s seed=%d lenient=%v: sketch covers %d records, decoder kept %d",
								in.name, plan.Seed, lenient, got, want)
						}
						state, serr := res.Sketch.State()
						if serr != nil {
							rep.failf("stream %s seed=%d: partial sketch does not serialize: %v", in.name, plan.Seed, serr)
							return
						}
						back, rerr := stream.RestoreSketch(state)
						if rerr != nil {
							rep.failf("stream %s seed=%d: partial sketch state does not restore: %v", in.name, plan.Seed, rerr)
							return
						}
						state2, _ := back.State()
						if !bytes.Equal(state, state2) {
							rep.failf("stream %s seed=%d: sketch state round-trip not byte-identical", in.name, plan.Seed)
						}
					}()
				}
			}
		}
	}
}

type discard struct{}

func (*discard) Write(p []byte) (int, error) { return len(p), nil }

// pipelineChaos exercises the runner's failure semantics: retry
// recovers a transient panic, a hopeless job fails without poisoning
// its neighbors, and cancellation is recorded distinctly.
func pipelineChaos(rep *Report) {
	rep.Cases++
	attempt := 0
	jobs := []runner.Job{
		{ID: "flaky", Run: func(context.Context) string {
			attempt++
			if attempt == 1 {
				panic("chaos: transient fault")
			}
			return "recovered artifact"
		}},
		{ID: "hopeless", Run: func(context.Context) string { panic("chaos: permanent fault") }},
		{ID: "healthy", Run: func(context.Context) string { return "healthy artifact" }},
	}
	r := runner.Run(context.Background(), jobs, runner.Options{
		Workers: 1, Retries: 2, Backoff: time.Microsecond,
	})
	if !r.Results[0].OK() || r.Results[0].Attempts != 2 {
		rep.failf("pipeline: flaky job not recovered by retry: %+v", r.Results[0])
	}
	if r.Results[1].OK() || r.Results[1].Attempts != 3 {
		rep.failf("pipeline: hopeless job should fail after 3 attempts: %+v", r.Results[1])
	}
	if !r.Results[2].OK() {
		rep.failf("pipeline: failure leaked into healthy job: %+v", r.Results[2])
	}

	rep.Cases++
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r = runner.Run(ctx, []runner.Job{{ID: "never", Run: func(context.Context) string { return "" }}},
		runner.Options{Workers: 1})
	if r.Results[0].Status() != "CANCELED" {
		rep.failf("pipeline: pre-canceled run status %q, want CANCELED", r.Results[0].Status())
	}
}
