package main

import (
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"
)

// dilate is the paced phase's speed: trace seconds per wall second.
const dilate = 720

// sizes fixes each workload's inputs, so the same seed always gives
// the same records. Only tests shrink them.
type sizes struct {
	connHorizon   float64  // bench-conn pass of live_sketch, and the conn ledger stream (trace s)
	pktHorizon    float64  // bench-pkt stream of one live_observe round
	ledgerHorizon float64  // bench-pkt stream of the pkt ledger
	fleetHorizon  float64  // bench-conn stream split into live_fleet's two shard files
	warmupHorizon float64  // warm-up pass inside each live set-up
	uploadEvery   int64    // live_fleet worker upload cadence (records)
	reproIDs      []string // experiments repro runs; nil runs all of them
	minPasses     int
	setups        int
}

// fullSize is what the benchmark runs. bench-conn makes ≈1400 records
// per trace second and bench-pkt ≈710, so a live_sketch pass is ≈2²¹
// records, a live_observe round ≈2²⁰ records (2 wall seconds paced,
// 288 windows), each ledger stream ≈2²¹ records and live_fleet's two
// shard files ≈10⁶ records between them.
var fullSize = sizes{
	connHorizon: 1500, pktHorizon: 1440, ledgerHorizon: 2880, fleetHorizon: 720, warmupHorizon: 60,
	uploadEvery: 16384, minPasses: 3, setups: 5,
}

// config is one workload run's settings.
type config struct {
	seed   int64
	budget time.Duration // how long the measured passes run
	traced bool
	tr     *benchTracer // nil unless traced
	root   string       // repository root, for the goldens
	work   string       // scratch directory inside the checkout
	size   sizes
}

// workload is one benchmark input set.
type workload struct {
	name string
	run  func(cfg config) (*result, error)
}

var workloads = []workload{
	{"repro", runRepro},
	{"live_sketch", runLiveSketch},
	{"live_observe", runLiveObserve},
	{"live_fleet", runLiveFleet},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// repeat runs pass until the budget is spent and at least min passes
// ran. A traced run alternates untraced (even i) and traced (odd i)
// passes, at least min of each, so trace_overhead_pct compares like
// with like.
func repeat(cfg config, min int, pass func(tr *benchTracer) error) error {
	if cfg.traced {
		min *= 2
	}
	start := time.Now()
	for i := 0; i < min || time.Since(start) < cfg.budget; i++ {
		var tr *benchTracer
		if cfg.traced && i%2 == 1 {
			tr = cfg.tr
		}
		if err := pass(tr); err != nil {
			return err
		}
	}
	return nil
}

// minSetupTime is how long set-up repeats at least: a set-up of a
// millisecond or less repeats often enough for its median to be steady.
const minSetupTime = 200 * time.Millisecond

// timeSetups runs setup at least n times and for at least minSetupTime,
// keeping the last result, and returns the median set-up time in
// seconds.
func timeSetups[T any](n int, setup func() (T, error)) (T, float64, error) {
	var last T
	var secs []float64
	for begin := time.Now(); len(secs) < max(n, 1) || time.Since(begin) < minSetupTime; {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// maxRSSMB is the process's peak resident set. Each workload runs in
// its own process, so this is the workload's.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// overheadPct compares traced and untraced throughput medians.
func overheadPct(untraced, traced []float64) float64 {
	t := median(traced)
	if t <= 0 {
		return 0
	}
	return (median(untraced)/t - 1) * 100
}

// finish adds the metrics every workload reports, then fills the
// per-layer rows of layers the workload never calls with 0 — only
// ratios, counts and shares may be filled, a missing time is a bug.
func finish(r *result, cfg config, setupS float64, throughput, latencies []float64) error {
	if !cfg.traced {
		r.set("throughput_per_s", median(throughput))
		r.set("latency_ms", median(latencies))
		r.set("max_rss_mb", maxRSSMB())
		r.set("setup_s", setupS)
		return nil
	}
	r.set("latency_p90_ms", percentile(latencies, 0.9))
	r.set("latency_p99_ms", percentile(latencies, 0.99))
	r.set("latency_samples", float64(len(latencies)))
	for _, t := range cfg.tr.totals() {
		r.extra("span."+t.name+".ms", ms(t.total), "ms")
		r.extra("span."+t.name+".self_ms", ms(t.own), "ms")
	}
	have := make(map[string]bool)
	for _, v := range r.values {
		have[v.name] = true
	}
	for _, m := range perLayer() {
		if have[m.name] {
			continue
		}
		switch m.unit {
		case "ns", "us", "ms", "s":
			return fmt.Errorf("%s: traced run did not measure %s", r.workload, m.name)
		}
		r.set(m.name, 0)
	}
	return nil
}

// scratchDir makes a fresh directory under the checkout's build area.
func scratchDir(root string) (string, error) {
	base := root + "/.bench_build"
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "wanbench-")
}
