package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"

	"wantraffic/internal/experiments"
	"wantraffic/internal/runner"
)

// repro is the reproduction plane, batch: every experiments.All()
// driver through runner.Run with Workers: 1, each output's SHA-256
// checked against internal/experiments/testdata/golden/<id>.txt. It is
// the only workload that reaches selfsim, fit, fft and sim, and it
// bypasses every live layer. The goldens pin its inputs, so it ignores
// the seed; one pass is longer than the run's seconds, so a run is
// one pass (two when traced). Its latency is the batch's: input to
// the last complete output, one pass.
func runRepro(cfg config) (*result, error) {
	r := &result{workload: "repro"}
	r.note("repro ignores --seed: the goldens pin its inputs")
	var exps []experiments.Experiment
	for _, e := range experiments.All() {
		if cfg.size.reproIDs == nil || contains(cfg.size.reproIDs, e.ID) {
			exps = append(exps, e)
		}
	}
	golden, setupS, err := timeSetups(cfg.size.setups, func() (map[string]string, error) {
		return loadGoldens(cfg.root, exps)
	})
	if err != nil {
		return nil, err
	}

	var thrU, thrT, latencies []float64
	var traced *runner.Report
	err = repeat(cfg, 1, func(tr *benchTracer) error {
		rep := reproPass(exps, tr)
		for _, res := range rep.Results {
			want := golden[res.ID]
			r.check(res.OK() && res.OutputSHA256 == want, "repro: %s %s, output_sha256 %.12s, golden %.12s",
				res.ID, res.Status(), res.OutputSHA256, want)
		}
		latencies = append(latencies, rep.WallMS)
		thr := float64(len(rep.Results)) / (rep.WallMS / 1000)
		if tr == nil {
			thrU = append(thrU, thr)
		} else {
			thrT = append(thrT, thr)
			traced = rep
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if cfg.traced {
		r.set("trace_overhead_pct", overheadPct(thrU, thrT))
		for _, res := range traced.Results {
			r.set("experiments."+res.ID+".share_pct", 100*ratio(res.WallMS, traced.WallMS))
			r.extra("experiments."+res.ID+".wall_ms", res.WallMS, "ms")
		}
		if err := runLedger(cfg, r); err != nil {
			return nil, err
		}
	}
	return r, finish(r, cfg, setupS, thrU, latencies)
}

// reproPass runs the drivers once. Traced, each driver runs under its
// own span, and its existing phase spans nest below it.
func reproPass(exps []experiments.Experiment, tr *benchTracer) *runner.Report {
	root := tr.start(nil, "repro.pass")
	jobs := make([]runner.Job, len(exps))
	for i, e := range exps {
		jobs[i] = runner.Job{ID: e.ID, Title: e.Title, Run: e.Run}
		if tr != nil {
			run, name := e.Run, "experiments."+e.ID
			jobs[i].Run = func(context.Context) string {
				sp := tr.start(root, name)
				defer sp.End()
				return run(sp.context())
			}
		}
	}
	rep := runner.Run(context.Background(), jobs, runner.Options{Workers: 1})
	root.End()
	return rep
}

// loadGoldens hashes each experiment's golden output.
func loadGoldens(root string, exps []experiments.Experiment) (map[string]string, error) {
	out := make(map[string]string, len(exps))
	for _, e := range exps {
		raw, err := os.ReadFile(filepath.Join(root, "internal", "experiments", "testdata", "golden", e.ID+".txt"))
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(raw)
		out[e.ID] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}
