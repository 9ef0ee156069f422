package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"wantraffic/internal/bench"
	"wantraffic/internal/cli"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// Verdicts of one (metric, workload) pair.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one (metric, workload) row.
type comparison struct {
	name, unit     string
	gated          bool // an end-to-end metric with a bound
	base, head     []float64
	baseQ1, baseQ3 float64
	headQ1, headQ3 float64
	baseMed        float64
	headMed        float64
	winFrac        float64
	pairs          int
	verdict        string
}

// runCompare is `wanbench compare BASE_DIR HEAD_DIR`: each directory
// holds -out files of repeated runs, paired by sorted file name (name
// them so the i-th base run and the i-th head run were made back to
// back, alternating which ran first). The rule is the choosing-metrics
// guide's, with the bounds in BENCHMARK.json:
//
//   - improved: head wins at least 9 in 10 pairs (ties count for
//     neither), and the medians differ by more than the base runs'
//     interquartile range;
//   - regressed: head's median is worse than base's by more than the
//     metric's bound and by more than the base interquartile range;
//   - unresolved: the base runs' own interquartile range is wider than
//     the bound, or the median moved past the bound but within that
//     range — unless every head run beats every base run;
//   - unchanged: otherwise.
//
// Per-layer metrics have no bound: they are reported as improved,
// regressed (the mirror of the improvement rule) or unchanged, and
// never gate. A regressed end-to-end metric exits 3.
func runCompare(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("wanbench compare", stderr)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return cli.Usagef("usage: wanbench compare BASE_DIR HEAD_DIR")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	base, err := loadRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	head, err := loadRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	rows := compareRuns(sp, base, head)

	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "METRIC\tUNIT\tBASE MEDIAN [Q1, Q3]\tHEAD MEDIAN [Q1, Q3]\tWINS\tVERDICT")
	regressions := 0
	for _, c := range rows {
		gate := ""
		if !c.gated {
			gate = " (not gated)"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%.0f%% of %d\t%s%s\n",
			c.name, c.unit, c.baseMed, c.baseQ1, c.baseQ3, c.headMed, c.headQ1, c.headQ3,
			100*c.winFrac, c.pairs, c.verdict, gate)
		if c.gated && c.verdict == verdictRegressed {
			regressions++
		}
	}
	tw.Flush()
	if regressions > 0 {
		return cli.Partialf("%d end-to-end regression(s)", regressions)
	}
	return nil
}

// loadRuns reads every *.json bench file in dir, in name order, into
// one value list per record name.
func loadRuns(dir string) (map[string][]bench.Record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no *.json run files", dir)
	}
	sort.Strings(paths)
	runs := make(map[string][]bench.Record)
	for _, p := range paths {
		f, err := bench.Load(p)
		if err != nil {
			return nil, err
		}
		for _, r := range f.Records {
			runs[r.Name] = append(runs[r.Name], r)
		}
	}
	return runs, nil
}

// compareRuns applies the rule to every declared metric present on
// both sides. Record names are "<workload>.<metric>".
func compareRuns(sp *spec, base, head map[string][]bench.Record) []comparison {
	declared := make(map[string]specMetric)
	for _, m := range sp.EndToEnd {
		declared[m.Name] = m
	}
	for _, m := range sp.PerLayer {
		declared[m.Name] = m
	}
	var rows []comparison
	for name, bs := range base {
		hs, ok := head[name]
		_, metric, _ := strings.Cut(name, ".")
		m, known := declared[metric]
		if !ok || !known {
			continue
		}
		c := comparison{name: name, unit: m.Unit, gated: m.Bound > 0, base: values(bs), head: values(hs)}
		c.judge(m.Better, m.Bound)
		rows = append(rows, c)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

func values(rs []bench.Record) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Value
	}
	return out
}

// judge fills the summary statistics and the verdict.
func (c *comparison) judge(better string, bound float64) {
	sign := 1.0 // +1: a higher value is better
	if better != bench.BetterHigher {
		sign = -1
	}
	c.baseMed, c.headMed = median(c.base), median(c.head)
	c.baseQ1, c.baseQ3 = quartiles(c.base)
	c.headQ1, c.headQ3 = quartiles(c.head)
	wins, losses := 0, 0
	c.pairs = min(len(c.base), len(c.head))
	for i := 0; i < c.pairs; i++ {
		switch d := sign * (c.head[i] - c.base[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	if c.pairs > 0 {
		c.winFrac = float64(wins) / float64(c.pairs)
	}
	gain := sign * (c.headMed - c.baseMed) // > 0: head is better
	spread := c.baseQ3 - c.baseQ1
	allBetter := sign*(worst(c.head, sign)-best(c.base, sign)) > 0

	switch {
	case c.winFrac >= 0.9 && gain > spread:
		c.verdict = verdictImproved
	case bound <= 0:
		// Not gated: only the mirror of the improvement rule reports a
		// per-layer metric as worse.
		c.verdict = verdictUnchanged
		if c.pairs > 0 && float64(losses)/float64(c.pairs) >= 0.9 && -gain > spread {
			c.verdict = verdictRegressed
		}
	case -gain > bound*math.Abs(c.baseMed) && -gain > spread:
		c.verdict = verdictRegressed
	case (spread > bound*math.Abs(c.baseMed) || -gain > bound*math.Abs(c.baseMed)) && !allBetter:
		c.verdict = verdictUnresolved
	default:
		c.verdict = verdictUnchanged
	}
}

// worst and best return the worst and best value in the direction
// sign (+1: higher is better).
func worst(xs []float64, sign float64) float64 {
	w := xs[0]
	for _, x := range xs {
		if sign*x < sign*w {
			w = x
		}
	}
	return w
}

func best(xs []float64, sign float64) float64 {
	return worst(xs, -sign)
}
