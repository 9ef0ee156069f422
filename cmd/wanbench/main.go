// Command wanbench is the repository's benchmark: one command that
// drives both planes through their public calls, checks that every
// output is correct, and prints every metric with its unit.
//
// Usage (from the repository root):
//
//	bash cmd/wanbench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-trace-out F] [-out F]
//	bash cmd/wanbench/run.sh compare BASE_DIR HEAD_DIR
//
// or, inside cmd/wanbench, `go run . ...`. The workloads are repro,
// live_sketch, live_observe and live_fleet; without -workload all four
// run, each in its own child process. Each metric prints as
// "<workload> <metric> <value> <unit>", and the last line of output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// -trace 0 reports the end-to-end metrics; -trace 1 adds traced passes
// and the layer ledger and reports the per-layer metrics instead.
// BENCHMARK.json at the repository root declares both sets and the
// end-to-end regression bounds; README.md explains each metric.
//
// Exit codes follow the repository's contract: 0 ok, 1 a correctness
// check failed or a run broke, 2 usage, 3 compare found a regression.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"wantraffic/internal/bench"
	"wantraffic/internal/cli"
)

func main() {
	os.Exit(cli.Main("wanbench", run))
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := cli.NewFlagSet("wanbench", stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+"; empty runs all four, each in its own process")
	seed := fs.Int64("seed", 1, "seed the live workloads' inputs are generated from (repro ignores it)")
	seconds := fs.Int("seconds", 20, "how long the measured passes run; a pass longer than this runs once")
	traced := fs.Int("trace", 0, "1: add traced passes and the layer ledger, and report the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the traced passes' spans here as Chrome trace JSON")
	out := fs.String("out", "", "also write the metrics as a wantraffic-bench/v1 file (records <workload>.<metric>)")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected argument %q", fs.Arg(0))
	}
	if err := cli.Positive("seconds", float64(*seconds)); err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return cli.Usagef("-trace must be 0 or 1, got %d", *traced)
	}
	if *traceOut != "" && *traced == 0 {
		return cli.Usagef("-trace-out requires -trace 1")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	if *name == "" {
		childArgs := []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.Itoa(*seconds), "-trace", strconv.Itoa(*traced)}
		return runAll(root, childArgs, *traceOut, *out, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return cli.Usagef("unknown workload %q (have %s)", *name, workloadNames())
	}

	work, err := scratchDir(root)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg := config{
		seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *traced == 1,
		root: root, work: work, size: fullSize,
	}
	if cfg.traced {
		cfg.tr = newBenchTracer()
	}
	res, err := w.run(cfg)
	if err != nil {
		return err
	}
	if *out != "" {
		env := environment(*seed, *seconds, *traced)
		env["workload"] = res.workload
		if err := writeBenchFile(*out, env, res); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		raw, err := cfg.tr.obs.ChromeTrace()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, raw, 0o644); err != nil {
			return err
		}
	}
	if err := printResult(stdout, res); err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d correctness checks failed", res.workload, res.failed, res.attempted)
	}
	return nil
}

// printResult prints the notes, one line per metric, and the JSON
// summary of the declared metrics as the last line.
func printResult(w io.Writer, r *result) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s: %s\n", r.workload, n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric)
	for _, v := range r.values {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, v.name, strconv.FormatFloat(v.v, 'g', -1, 64), v.unit)
		if !v.extra {
			metrics[v.name] = jsonMetric{v.v, v.unit}
		}
	}
	raw, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", raw)
	return nil
}

// runAll runs every workload in its own child process (so max_rss_mb
// is each workload's own) with args, passing the child's output
// through, and merges the children's -out files into one. Each child
// writes its spans to traceOut with the workload's name before the
// extension.
func runAll(root string, args []string, traceOut, out string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	work, err := scratchDir(root)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	var records []bench.Record
	var failed []string
	env := map[string]string{}
	for _, w := range workloads {
		childOut := filepath.Join(work, w.name+".json")
		childArgs := append([]string{"-workload", w.name, "-out", childOut}, args...)
		if traceOut != "" {
			ext := filepath.Ext(traceOut)
			childArgs = append(childArgs, "-trace-out", strings.TrimSuffix(traceOut, ext)+"."+w.name+ext)
		}
		cmd := exec.Command(self, childArgs...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
			continue
		}
		f, err := bench.Load(childOut)
		if err != nil {
			return err
		}
		records = append(records, f.Records...)
		env = f.Environment
	}
	if out != "" && len(records) > 0 {
		env["workload"] = "all"
		raw, err := json.MarshalIndent(newBenchFile(env, records), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workload(s) failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// environment records what a result depends on besides the code.
func environment(seed int64, seconds, traced int) map[string]string {
	return map[string]string{
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go_version": runtime.Version(),
		"seed":       strconv.FormatInt(seed, 10),
		"seconds":    strconv.Itoa(seconds),
		"trace":      strconv.Itoa(traced),
	}
}

// writeBenchFile writes one workload's metrics as a wantraffic-bench/v1
// file, readable by `wanmon bench-diff` and `wanbench compare`.
func writeBenchFile(path string, env map[string]string, r *result) error {
	better := make(map[string]string)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer()...) {
		better[m.name] = m.better
	}
	records := make([]bench.Record, 0, len(r.values))
	for _, v := range r.values {
		b := bench.BetterNone
		if !v.extra {
			b = better[v.name]
		}
		records = append(records, bench.Record{Name: r.workload + "." + v.name, Unit: v.unit, Value: v.v, Better: b})
	}
	raw, err := json.MarshalIndent(newBenchFile(env, records), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func newBenchFile(env map[string]string, records []bench.Record) bench.File {
	return bench.File{
		Schema: bench.Schema, Suite: "wanbench", Date: time.Now().UTC().Format("2006-01-02"),
		Environment: env, Records: records,
		Notes: "wanbench run; see cmd/wanbench/README.md for each metric",
	}
}

// findRoot walks up from the working directory to the repository root,
// the directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it; run from inside the repository")
		}
		dir = parent
	}
}
