package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json -compare reads: the bound
// each end-to-end metric may lose.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadRuns collects, per workload and end-to-end metric, the values of
// every untraced result in the given report files.
func loadRuns(paths []string) (map[string]map[string][]float64, error) {
	runs := map[string]map[string][]float64{}
	for _, p := range paths {
		var rep report
		if err := readJSON(p, &rep); err != nil {
			return nil, err
		}
		if rep.Schema != reportSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", p, rep.Schema, reportSchema)
		}
		for _, r := range rep.Results {
			if r.EndToEnd == nil {
				continue
			}
			if runs[r.Workload] == nil {
				runs[r.Workload] = map[string][]float64{}
			}
			for k, v := range r.EndToEnd {
				runs[r.Workload][k] = append(runs[r.Workload][k], v)
			}
		}
	}
	return runs, nil
}

// compareReports prints one row per workload and end-to-end metric: the
// two medians, how much worse the second is as a share of the first, and
// a verdict against the metric's bound. A pairing whose run-to-run
// spread on either side exceeds the bound is unresolved, not ok. It
// reports whether any row is worse.
func compareReports(w io.Writer, manifestPath string, a, b []string) (bool, error) {
	var man benchmarkJSON
	if err := readJSON(manifestPath, &man); err != nil {
		return false, err
	}
	base, err := loadRuns(a)
	if err != nil {
		return false, err
	}
	cand, err := loadRuns(b)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-17s %-22s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "base", "candidate", "worse%", "spread%", "bound%", "verdict")
	for _, wl := range man.Workloads {
		for _, m := range man.EndToEnd {
			av, bv := base[wl.Name][m.Name], cand[wl.Name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			am, bm := median(av), median(bv)
			worse := ratio(bm-am, am)
			if m.Better == "higher" {
				worse = -worse
			}
			sp := max(runSpread(av), runSpread(bv))
			verdict := "ok"
			switch {
			case sp > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(w, "%-17s %-22s %14.6g %14.6g %8.2f %7.2f %7.2f  %s\n",
				wl.Name, m.Name, am, bm, 100*worse, 100*sp, 100*m.Bound, verdict)
		}
	}
	return anyWorse, nil
}

// runSpread is the interquartile range over the median from four runs
// up, and the full range over the median below that.
func runSpread(xs []float64) float64 {
	if len(xs) >= 4 {
		return spread(xs)
	}
	s := sorted(xs)
	return ratio(s[len(s)-1]-s[0], quantile(s, 0.5))
}
