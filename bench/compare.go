package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResults(path string) (resultsFile, error) {
	var f resultsFile
	blob, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(blob, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// values collects one end-to-end metric of one workload over the
// file's untraced runs (null values, from a guarded host, are skipped).
func (f resultsFile) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.Records {
		if r.Workload == workload && r.Trace == 0 {
			if mv, ok := r.Metrics[metric]; ok && mv.Value != nil {
				xs = append(xs, *mv.Value)
			}
		}
	}
	return xs
}

// failedFrac is failed solves over attempted solves, all runs of one
// workload taken together.
func (f resultsFile) failedFrac(workload string) float64 {
	var failed, attempted float64
	for _, r := range f.Records {
		if r.Workload == workload {
			failed += float64(r.Failed)
			attempted += float64(r.Attempted)
		}
	}
	return ratio(failed, attempted)
}

// summarise prints, per workload and end-to-end metric, the median and
// quartiles over the file's runs and the spread next to its bound.
func summarise(f resultsFile, w io.Writer) {
	fmt.Fprintf(w, "%-14s %-18s %3s %12s %12s %12s %8s %6s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xs := f.values(wl.name, d.Name)
			q1, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-14s %-18s %3d %12.6g %12.6g %12.6g %7.2f%% %5.0f%%\n",
				wl.name, d.Name, len(xs), median(xs), q1, q3, 100*spread(xs), 100*d.Bound)
		}
		fmt.Fprintf(w, "%-14s %-18s %g\n", wl.name, "failed_frac", f.failedFrac(wl.name))
	}
}

// verdict judges B against A on one metric: "worse" when B's median is
// worse than A's by more than the bound, "unresolved" when either
// side's own spread exceeds the bound (the runs cannot tell), "better"
// when B's median is better by more than A's spread, else "same".
func verdict(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	medA, medB := median(a), median(b)
	if medA == 0 {
		return "unresolved"
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		return "unresolved"
	}
	worseBy := (medB - medA) / medA
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case worseBy > d.Bound:
		return "worse"
	case -worseBy > spread(a):
		return "better"
	}
	return "same"
}

// compareFiles prints one row per workload and end-to-end metric and
// returns the exit code: 1 when any row is worse or a workload's
// failed_frac rose, else 0.
func compareFiles(pathA, pathB string, w io.Writer) (int, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "A = %s (%d cores, %s)\nB = %s (%d cores, %s)\n", pathA, a.Host.NProc, a.Host.CPUModel, pathB, b.Host.NProc, b.Host.CPUModel)
	fmt.Fprintf(w, "%-14s %-18s %30s %30s %9s %6s  %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B/A", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := a.values(wl.name, d.Name), b.values(wl.name, d.Name)
			v := verdict(d, xa, xb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-18s %30s %30s %9.4f %5.0f%%  %s (%s is better)\n",
				wl.name, d.Name, cell(xa), cell(xb), ratio(median(xb), median(xa)), 100*d.Bound, v, d.Better)
		}
		fa, fb := a.failedFrac(wl.name), b.failedFrac(wl.name)
		v := "same"
		if fb > fa {
			v, code = "worse", 1
		}
		fmt.Fprintf(w, "%-14s %-18s %30g %30g %9s %6s  %s\n", wl.name, "failed_frac", fa, fb, "", "", v)
	}
	return code, nil
}

func cell(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", median(xs), q1, q3, len(xs))
}
