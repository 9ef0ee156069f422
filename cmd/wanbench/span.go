package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"wantraffic/internal/obs"
)

// The traced run records two kinds of measurement, both from this
// package's own files around calls into the layers; nothing is added
// inside the program.
//
//   - Coarse calls (Daemon.Run, IngestReader, Merged, State, Replay,
//     RunWorker, Results, each experiment) become spans: they go into
//     an obs.Tracer for the Chrome export, and are kept as plain
//     intervals for the self-time ledger, because obs.Span keeps its
//     times private.
//   - High-frequency boundaries (pipe reads and writes, HTTP round
//     trips, upload handler calls) accumulate into a stopwatch as a
//     total and a count, never one span per call.

// benchTracer collects one run's spans. A nil *benchTracer is the
// untraced run: start returns a nil span, whose methods no-op.
type benchTracer struct {
	obs *obs.Tracer

	mu    sync.Mutex
	spans []*span
}

func newBenchTracer() *benchTracer { return &benchTracer{obs: obs.NewTracer()} }

// span is one timed call. ctx carries the obs span, so library calls
// handed it nest their own existing spans underneath.
type span struct {
	name       string
	parent     *span
	start, end time.Time
	ctx        context.Context
	o          *obs.Span
}

// start opens a span under parent, or a root span when parent is nil.
func (t *benchTracer) start(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	ctx := obs.WithTracer(context.Background(), t.obs)
	if parent != nil {
		ctx = parent.ctx
	}
	ctx, o := obs.StartSpan(ctx, name)
	s := &span{name: name, parent: parent, start: time.Now(), ctx: ctx, o: o}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// End closes the span. Each span is ended once, by the goroutine that
// opened it, before the tracer is read.
func (s *span) End() {
	if s == nil {
		return
	}
	s.end = time.Now()
	s.o.End()
}

// context returns the context library calls under this span receive.
func (s *span) context() context.Context {
	if s == nil {
		return context.Background()
	}
	return s.ctx
}

// interval is a closed time range.
type interval struct{ start, end time.Time }

// selfTime is the part of parent not covered by any child: the
// children are clipped to the parent and their union is subtracted, so
// two overlapping children (a generator and its concurrent consumer)
// are not counted twice.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return parent.end.Sub(parent.start) - covered
}

// spanTotals sums each span name's duration and self time over the
// run, in first-seen order.
type spanTotal struct {
	name       string
	total, own time.Duration
	count      int
}

func (t *benchTracer) totals() []spanTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[*span][]interval)
	for _, s := range t.spans {
		if s.parent != nil {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	index := make(map[string]int)
	var out []spanTotal
	for _, s := range t.spans {
		i, ok := index[s.name]
		if !ok {
			i = len(out)
			index[s.name] = i
			out = append(out, spanTotal{name: s.name})
		}
		out[i].total += s.end.Sub(s.start)
		out[i].own += selfTime(interval{s.start, s.end}, children[s])
		out[i].count++
	}
	return out
}

// stopwatch accumulates the time spent inside a high-frequency call
// site. Safe for concurrent use (two fleet workers share one).
type stopwatch struct {
	mu      sync.Mutex
	total   time.Duration
	n       int64
	bytes   int64
	samples []float64 // per-call milliseconds, kept when keep is set
	keep    bool
}

func (w *stopwatch) add(d time.Duration, bytes int64) {
	w.mu.Lock()
	w.total += d
	w.n++
	w.bytes += bytes
	if w.keep {
		w.samples = append(w.samples, ms(d))
	}
	w.mu.Unlock()
}

// timedWriter measures time blocked in Write: on an io.Pipe that is
// the time the producer waits for the consumer.
type timedWriter struct {
	w  io.Writer
	sw *stopwatch
}

func (t *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.w.Write(p)
	t.sw.add(time.Since(start), int64(n))
	return n, err
}

// timedReader measures time blocked in Read: on an io.Pipe that is the
// time the consumer waits for the producer.
type timedReader struct {
	r  io.Reader
	sw *stopwatch
}

func (t *timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := t.r.Read(p)
	t.sw.add(time.Since(start), int64(n))
	return n, err
}

// timedTransport measures each HTTP round trip a worker makes, passed
// in through coord.Client.HTTPClient.
type timedTransport struct {
	base http.RoundTripper
	sw   *stopwatch
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	t.sw.add(time.Since(start), r.ContentLength)
	return resp, err
}

// timedHandler measures each call of a coordinator route.
func timedHandler(h http.Handler, sw *stopwatch) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		sw.add(time.Since(start), 0)
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
