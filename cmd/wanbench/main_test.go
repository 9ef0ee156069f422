package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"wantraffic/internal/bench"
)

// testSize shrinks every workload to well under a second.
var testSize = sizes{
	connHorizon: 20, pktHorizon: 60, ledgerHorizon: 60, fleetHorizon: 20, warmupHorizon: 5,
	uploadEvery: 4096, reproIDs: []string{"fig4", "sec3weather"}, minPasses: 1, setups: 1,
}

type summary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSmall runs one workload at testSize and parses the last line of
// its output.
func runSmall(t *testing.T, w workload, traced bool) summary {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 1, budget: time.Millisecond, traced: traced, root: root, work: t.TempDir(), size: testSize}
	if traced {
		cfg.tr = newBenchTracer()
	}
	res, err := w.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := printResult(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the JSON summary: %v", err)
	}
	if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
		t.Fatalf("correct %v, %d of %d checks failed:\n%s", s.Correct, s.Failed, s.Attempted, out.String())
	}
	return s
}

// TestWorkloadsEmitDeclaredMetrics runs each workload small, untraced
// and traced, and checks the summary holds exactly the metrics
// BENCHMARK.json declares for that mode, each with its declared unit.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			t.Run(w.name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				s := runSmall(t, w, traced)
				for _, m := range want {
					got, ok := s.Metrics[m.Name]
					switch {
					case !valid.MatchString(m.Name):
						t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(s.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(s.Metrics), len(want))
				}
			})
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the code's metric tables and
// BENCHMARK.json in step, and checks its bounds and workload names.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, code []metric, file []specMetric) {
		if len(code) != len(file) {
			t.Fatalf("%s: code declares %d metrics, BENCHMARK.json %d", kind, len(code), len(file))
		}
		for i, m := range code {
			f := file[i]
			if m.name != f.Name || m.unit != f.Unit || m.better != f.Better {
				t.Errorf("%s %d: code %v, BENCHMARK.json %+v", kind, i, m, f)
			}
		}
	}
	same("end_to_end", endToEnd, sp.EndToEnd)
	same("per_layer", perLayer(), sp.PerLayer)

	var setupBound float64
	for _, m := range sp.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s: bound %g above setup_s's %g", m.Name, m.Bound, setupBound)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestSelfTime checks that overlapping children are subtracted once
// and that children are clipped to their parent.
func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{{at(10), at(20)}, {at(50), at(70)}}, 70 * time.Millisecond},
		{"overlapping", []interval{{at(10), at(60)}, {at(40), at(80)}}, 30 * time.Millisecond},
		{"nested", []interval{{at(10), at(90)}, {at(20), at(30)}}, 20 * time.Millisecond},
		{"clipped", []interval{{at(-50), at(10)}, {at(95), at(150)}}, 85 * time.Millisecond},
		{"touching", []interval{{at(10), at(20)}, {at(20), at(30)}}, 80 * time.Millisecond},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPipeParity builds wanload and wanstream, pipes
// `wanload -binary bench-conn.json | wanstream -json -`, and checks the
// digest equals the in-process live_sketch chain's: the benchmark's
// in-process path measures what the shipped binaries compute.
func TestPipeParity(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tool := range []string{"wanload", "wanstream"} {
		build := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		build.Dir = root
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	const horizon = 30
	raw, err := json.Marshal(connScenario(horizon))
	if err != nil {
		t.Fatal(err)
	}
	scenario := filepath.Join(dir, "bench-conn.json")
	if err := os.WriteFile(scenario, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	gen := exec.Command(filepath.Join(dir, "wanload"), "-binary", "-seed", "1", scenario)
	sink := exec.Command(filepath.Join(dir, "wanstream"), "-json", "-")
	pipe, err := gen.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	sink.Stdin = pipe
	var out bytes.Buffer
	sink.Stdout = &out
	if err := gen.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Run(); err != nil {
		t.Fatalf("wanstream: %v", err)
	}
	if err := gen.Wait(); err != nil {
		t.Fatalf("wanload: %v", err)
	}
	var report struct {
		StateSHA256 string `json:"state_sha256"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("wanstream -json output: %v\n%s", err, out.String())
	}
	p, err := sketchPass(1, horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.StateSHA256 != p.digest {
		t.Errorf("piped binaries: state_sha256 %s; in-process chain: %s", report.StateSHA256, p.digest)
	}
}

// TestPinnedMismatchFails checks a digest that differs from a pinned
// one counts as a failed check.
func TestPinnedMismatchFails(t *testing.T) {
	var pins map[string][]pin
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		t.Fatal(err)
	}
	p := pins["live_sketch"][0]
	for _, tc := range []struct {
		digest string
		failed int
	}{{p.SHA256, 0}, {strings.Repeat("0", 64), 1}} {
		r := &result{workload: "live_sketch"}
		checkPinned(r, "live_sketch", p.Seed, p.Horizon, tc.digest)
		if r.attempted != 1 || r.failed != tc.failed {
			t.Errorf("digest %.12s: %d of %d checks failed, want %d of 1", tc.digest, r.failed, r.attempted, tc.failed)
		}
	}
}

// TestCompareVerdicts covers each verdict of the comparison rule.
func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64, xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 90, 110, 60, 140, 100, 80, 120, 100}
	bimodal := []float64{100, 160, 100, 160, 100, 160, 100, 160, 100, 160}
	flat := []float64{99, 99, 99, 99, 99, 99, 99, 99, 99, 99}
	for _, tc := range []struct {
		name       string
		better     string
		bound      float64
		base, head []float64
		want       string
	}{
		{"same", "lower", 0.1, steady, steady, verdictUnchanged},
		{"faster", "lower", 0.1, steady, scaled(0.8, steady), verdictImproved},
		{"slower", "lower", 0.1, steady, scaled(1.3, steady), verdictRegressed},
		{"slightly slower", "lower", 0.1, steady, scaled(1.05, steady), verdictUnchanged},
		{"noisy base", "lower", 0.1, noisy, noisy, verdictUnresolved},
		{"beats every noisy base run", "lower", 0.1, bimodal, flat, verdictUnchanged},
		{"higher is better", "higher", 0.1, steady, scaled(0.8, steady), verdictRegressed},
		{"per-layer worse", "lower", 0, steady, scaled(1.3, steady), verdictRegressed},
		{"per-layer noisy", "lower", 0, noisy, noisy, verdictUnchanged},
	} {
		c := comparison{base: tc.base, head: tc.head}
		c.judge(tc.better, tc.bound)
		if c.verdict != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, c.verdict, tc.want)
		}
	}
}

// TestBenchFileRoundTrip checks -out files parse as wantraffic-bench/v1
// with workload-prefixed names.
func TestBenchFileRoundTrip(t *testing.T) {
	r := &result{workload: "live_sketch"}
	r.set("throughput_per_s", 1.5e6)
	r.extra("load.write_block_s", 0.3, "s")
	path := filepath.Join(t.TempDir(), "run.json")
	if err := writeBenchFile(path, environment(1, 10, 0), r); err != nil {
		t.Fatal(err)
	}
	f, err := bench.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Records) != 2 || f.Records[0].Name != "live_sketch.throughput_per_s" ||
		f.Records[0].Better != "higher" || f.Records[1].Better != bench.BetterNone {
		t.Errorf("records %+v", f.Records)
	}
	if f.Environment["nproc"] == "" || f.Environment["go_version"] == "" || f.Environment["seed"] != "1" {
		t.Errorf("environment %v", f.Environment)
	}
}
