package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// scenario builds a small deterministic span forest under a fixed
// clock: a run with two jobs, one nested attempt, an event, and
// attributes. Every golden test shares it.
func scenario() *Tracer {
	tr := NewTracerClock(StepClock(TestEpoch, time.Millisecond))
	ctx := WithTracer(context.Background(), tr)
	ctx, run := StartSpan(ctx, "run")
	run.SetAttrInt("workers", 2)
	jctx, j1 := StartSpan(ctx, "job:table1")
	_, a1 := StartSpan(jctx, "attempt:1")
	a1.Event("retry")
	a1.End()
	j1.End()
	_, j2 := StartSpan(ctx, "job:fig2")
	j2.SetAttr("status", "ok")
	j2.End()
	run.End()
	return tr
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestSpanTreeGolden(t *testing.T) {
	checkGolden(t, "span_tree.golden.txt", []byte(scenario().Tree()))
}

func TestChromeTraceGolden(t *testing.T) {
	raw, err := scenario().ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatalf("chrome trace is not valid JSON:\n%s", raw)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	// 4 spans + 1 instant event.
	if len(file.TraceEvents) != 5 {
		t.Errorf("want 5 trace events, got %d", len(file.TraceEvents))
	}
	checkGolden(t, "chrome_trace.golden.json", raw)
}

func TestMetricsJSONGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("runner.retries").Add(3)
	r.Counter("trace.records.kept").Add(1200)
	r.Gauge("runner.jobs.total").Set(30)
	r.Gauge("par.occupancy").Set(0.75)
	h := r.Histogram("runner.run_ms", nil)
	for _, v := range []float64{0.05, 2, 2, 40, 900, 45000} {
		h.Observe(v)
	}
	raw, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatalf("metrics snapshot is not valid JSON:\n%s", raw)
	}
	checkGolden(t, "metrics.golden.json", raw)
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	r.Histogram("z.h", nil)
	r.Counter("a.c")
	r.Gauge("m.g")
	got := r.Names()
	want := []string{"a.c", "m.g", "z.h"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

// TestRegistryRace hammers one registry from many goroutines —
// creation races, updates, and concurrent snapshots — and relies on
// `go test -race` to catch unsynchronized access.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared.counter").Inc()
				r.Counter(fmt.Sprintf("per.counter.%d", g%4)).Add(2)
				r.Gauge("shared.gauge").Add(1)
				r.Histogram("shared.hist_ms", nil).Observe(float64(i % 100))
				if i%100 == 0 {
					if _, err := r.JSON(); err != nil {
						t.Error(err)
					}
					_ = r.Names()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != goroutines*iters {
		t.Errorf("shared.counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Histogram("shared.hist_ms", nil).Count(); got != goroutines*iters {
		t.Errorf("shared.hist_ms count = %d, want %d", got, goroutines*iters)
	}
	if got := r.Gauge("shared.gauge").Value(); got != goroutines*iters {
		t.Errorf("shared.gauge = %g, want %d", got, goroutines*iters)
	}
}

// TestTracerRace starts and annotates spans from many goroutines
// under one parent while exports run concurrently.
func TestTracerRace(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, sp := StartSpan(ctx, fmt.Sprintf("child:%d", g))
				sp.SetAttrInt("i", int64(i))
				sp.Event("tick")
				sp.End()
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		_ = tr.Tree()
		if _, err := tr.ChromeTrace(); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	root.End()
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("x").Set(1)
	reg.Histogram("x", nil).Observe(1)
	if reg.Names() != nil {
		t.Error("nil registry Names() should be nil")
	}

	// No tracer in context: StartSpan returns a nil span that no-ops.
	ctx, sp := StartSpan(context.Background(), "orphan")
	if sp != nil {
		t.Fatal("StartSpan without tracer should return nil span")
	}
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 1)
	sp.Event("e")
	sp.End()
	if SpanFrom(ctx) != nil {
		t.Error("context should not carry a span")
	}
	if WithTracer(ctx, nil) != ctx {
		t.Error("WithTracer(nil) should return ctx unchanged")
	}
}

func TestSpanDoubleEnd(t *testing.T) {
	tr := NewTracerClock(StepClock(TestEpoch, time.Millisecond))
	ctx := WithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, "once")
	sp.End()
	first := tr.Tree()
	sp.End() // must not move the end time
	if second := tr.Tree(); first != second {
		t.Errorf("double End changed the tree:\n%s\nvs\n%s", first, second)
	}
}

func TestSeedIDs(t *testing.T) {
	tr := NewTracerClock(StepClock(TestEpoch, time.Millisecond))
	tr.SeedIDs(100)
	ctx := WithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, "seeded")
	if sp.id != 100 {
		t.Errorf("seeded span id = %d, want 100", sp.id)
	}
}

func TestProgressTicker(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	reg := NewRegistry()
	reg.Gauge("runner.jobs.total").Set(4)
	reg.Counter("runner.jobs.done").Add(2)
	reg.Counter("runner.jobs.ok").Add(2)
	stop := StartProgress(w, reg, 2*time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	stop()
	stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "progress: 2/4 jobs done (2 ok, 0 retries)") {
		t.Errorf("progress output missing expected line:\n%s", out)
	}

	// Disabled configurations return a no-op stop.
	StartProgress(w, nil, time.Second)()
	StartProgress(w, reg, 0)()
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench.hist_ms", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}

func BenchmarkStartSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "off")
		sp.End()
	}
}

func BenchmarkCounterLookup(b *testing.B) {
	r := NewRegistry()
	r.Counter("bench.lookup")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("bench.lookup").Add(1)
	}
}
