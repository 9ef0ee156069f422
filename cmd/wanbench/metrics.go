package main

import (
	"fmt"
	"math"
	"sort"

	"wantraffic/internal/experiments"
)

// metric is one declared metric. BENCHMARK.json lists the same names,
// units and directions (and, for end-to-end metrics, the regression
// bounds); TestMetricsMatchBenchmarkJSON keeps the two in step.
type metric struct {
	name, unit, better string
}

// endToEnd are the untraced metrics every workload reports. Each is
// defined per workload in README.md; in short, a pass is one unit of
// the workload's fixed work, repeated until the run's seconds are spent.
var endToEnd = []metric{
	// Units of work per wall second, median over passes: records on the
	// live workloads, experiment drivers on repro.
	{"throughput_per_s", "1/s", "higher"},
	// Median result latency: verdict due → emitted (live_observe), last
	// record written → merged state (live_sketch), last worker done →
	// Results (live_fleet), start → last golden-checked output (repro).
	{"latency_ms", "ms", "lower"},
	{"max_rss_mb", "MB", "lower"},
	// Median of several set-ups in one run.
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics. Every workload reports every
// one: the ledger rows are measured in each traced run, and the rows
// of a layer a workload never calls read 0 — all of those are ratios,
// counts or shares, never times.
func perLayer() []metric {
	ms := []metric{
		{"latency_p90_ms", "ms", "lower"},
		{"latency_p99_ms", "ms", "lower"},
		{"latency_samples", "count", "higher"},
		{"trace_overhead_pct", "%", "lower"},

		{"ledger.conn.e2e_ns_per_record", "ns", "lower"},
		{"ledger.conn.sum_ns_per_record", "ns", "lower"},
		{"ledger.conn.residual_pct", "%", "lower"},
		{"ledger.pkt.e2e_ns_per_record", "ns", "lower"},
		{"ledger.pkt.sum_ns_per_record", "ns", "lower"},
		{"ledger.pkt.residual_pct", "%", "lower"},

		{"load.conn_ns_per_record", "ns", "lower"},
		{"load.pkt_ns_per_record", "ns", "lower"},
		{"load.busy_ratio", "ratio", "higher"},
		{"load.late_pct", "%", "lower"},

		{"trace.conn_decode_ns_per_record", "ns", "lower"},
		{"trace.pkt_decode_ns_per_record", "ns", "lower"},
		{"trace.bytes_per_record", "bytes", "lower"},
		{"trace.decode_skipped", "count", "lower"},

		{"stream.ingest_ns_per_record", "ns", "lower"},
		{"stream.fold_ns_per_record", "ns", "lower"},
		{"stream.fanout_ns_per_record", "ns", "lower"},
		{"stream.merge_ms", "ms", "lower"},
		{"stream.state_ms", "ms", "lower"},
		{"stream.restore_ms", "ms", "lower"},
		{"stream.state_bytes", "bytes", "lower"},
		{"stream.busy_ratio", "ratio", "higher"},
	}
	for _, acc := range accumulatorNames {
		ms = append(ms, metric{"stream.acc." + acc + "_ns_per_obs", "ns", "lower"})
	}
	ms = append(ms,
		metric{"observe.fold_ns_per_record", "ns", "lower"},
		metric{"observe.window_close_us", "us", "lower"},
		metric{"observe.busy_ratio", "ratio", "higher"},
		metric{"observe.windows", "count", "higher"},
		metric{"observe.verdicts.warming", "count", "lower"},
		metric{"observe.verdicts.poisson", "count", "lower"},
		metric{"observe.verdicts.bursty", "count", "higher"},
		metric{"observe.change_points", "count", "lower"},

		metric{"coord.apply_ms", "ms", "lower"},
		metric{"coord.upload_ms", "ms", "lower"},
		metric{"coord.worker_busy_ratio", "ratio", "higher"},
		metric{"coord.accept_ratio", "ratio", "higher"},
		metric{"coord.uploads", "count", "lower"},
		metric{"coord.upload_bytes", "bytes", "lower"},
		metric{"coord.retries", "count", "lower"},
	)
	for _, id := range experiments.IDs() {
		ms = append(ms, metric{"experiments." + id + ".share_pct", "%", "lower"})
	}
	return ms
}

// accumulatorNames are the stream accumulators the ledger times one
// by one through ObserveMany.
var accumulatorNames = []string{"moments", "gk", "log2hist", "reservoir", "window", "aggvar"}

// value is one reported number.
type value struct {
	name  string
	v     float64
	unit  string
	extra bool // printed and written to -out, but not declared
}

// result is one workload run's outcome.
type result struct {
	workload          string
	attempted, failed int
	values            []value
	notes             []string
}

// set records a declared metric; its unit comes from the tables.
func (r *result) set(name string, v float64) {
	r.values = append(r.values, value{name: name, v: v, unit: declaredUnit(name)})
}

// extra records an undeclared metric with its own unit: workload-only
// times (they would read 0 on other workloads) and span totals.
func (r *result) extra(name string, v float64, unit string) {
	r.values = append(r.values, value{name: name, v: v, unit: unit, extra: true})
}

// note records a line printed after the metrics.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one correctness check; a failed one is noted.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.note("FAIL "+format, args...)
	}
}

func declaredUnit(name string) string {
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer()...) {
		if m.name == name {
			return m.unit
		}
	}
	panic("wanbench: undeclared metric " + name)
}

// median and the other percentiles use linear interpolation between
// order statistics.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), the spread rule the benchmark's
// stability check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return percentile(s, 0.5), percentile(s, 0.5)
	}
	at := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func ratio(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole
}
