package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// verdict judges one end-to-end metric of b against a under the metric's
// bound. spread is the wider of the two sides' interquartile spreads, as a
// share of the median. When it is wider than the bound the medians alone
// cannot resolve a change of that size, and the samples decide: ok if every
// sample of b reads better than every sample of a, worse if every one reads
// worse and the medians differ by more than the bound, unresolved while
// the two sets of runs overlap.
func verdict(d metricDef, a, b stat) (spread float64, v string) {
	if a.Median == 0 || b.Median == 0 || a.N == 0 || b.N == 0 {
		return 0, "unresolved"
	}
	sign := 1.0
	if d.better == "higher" {
		sign = -1
	}
	worse := sign * (b.Median - a.Median) / a.Median
	spread = math.Max((a.Q3-a.Q1)/a.Median, (b.Q3-b.Q1)/b.Median)
	if spread > d.bound {
		allBetter, allWorse := true, true
		for _, x := range b.Samples {
			for _, y := range a.Samples {
				if sign*(x-y) >= 0 {
					allBetter = false
				}
				if sign*(x-y) <= 0 {
					allWorse = false
				}
			}
		}
		switch {
		case allBetter:
			return spread, "ok"
		case allWorse && worse > d.bound:
			return spread, "worse"
		}
		return spread, "unresolved"
	}
	if worse > d.bound {
		return spread, "worse"
	}
	return spread, "ok"
}

// compareFiles prints b against a: every (workload, end-to-end metric)
// with both medians, the change with its base, the spread (so a reader
// sees whether a change inside the bound is still beyond the noise), the
// bound and a verdict; then the exact counts, which are compared for equality and reported as
// counts, never as speed-ups. It returns 1 when a metric is worse than its
// bound allows or the two files are of different seeds.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadReport(pathA)
	if err == nil {
		var b *report
		if b, err = loadReport(pathB); err == nil {
			return compareReports(a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func compareReports(a, b *report, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "a: seed %d %s GOMAXPROCS %d    b: seed %d %s GOMAXPROCS %d\n",
		a.Seed, a.GoVersion, a.GOMAXPROCS, b.Seed, b.GoVersion, b.GOMAXPROCS)
	sameInputs := a.Seed == b.Seed && a.Quick == b.Quick
	if !sameInputs {
		fmt.Fprintln(w, "the files are of different seeds or sizes: counts and digests are not comparable")
		code = 1
	}
	fmt.Fprintf(w, "\n%-14s %-18s %13s %13s %9s %7s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "spread", "bound", "verdict")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-14s missing from one file\n", wl.name)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			spread, v := verdict(d, sa, sb)
			change := 0.0
			if sa.Median != 0 {
				change = 100 * (sb.Median - sa.Median) / sa.Median
			}
			fmt.Fprintf(w, "%-14s %-18s %13.6g %13.6g %+8.2f%% %6.2f%% %6.0f%%  %s (%s is better; change is of a's %.6g %s)\n",
				wl.name, d.name, sa.Median, sb.Median, change, 100*spread, 100*d.bound, v, d.better, sa.Median, sa.Unit)
			if v == "worse" {
				code = 1
			}
		}
	}
	if !sameInputs {
		return code
	}
	fmt.Fprintf(w, "\n%-14s %-26s %18s %18s  %s\n", "workload", "count", "a", "b", "")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			continue
		}
		same := "same"
		if wa.ResultsDigest != wb.ResultsDigest {
			same = "DIFFERS"
		}
		fmt.Fprintf(w, "%-14s %-26s %18.12s %18.12s  %s\n", wl.name, "results_digest", wa.ResultsDigest, wb.ResultsDigest, same)
		for _, name := range exactCounts {
			ma, mb := wa.PerLayer[name], wb.PerLayer[name]
			if ma.Value != mb.Value {
				same = "DIFFERS"
				fmt.Fprintf(w, "%-14s %-26s %18.10g %18.10g  DIFFERS\n", wl.name, name, ma.Value, mb.Value)
			}
		}
		if same == "same" {
			fmt.Fprintf(w, "%-14s %-26s all %d counts equal\n", wl.name, "(exact counts)", len(exactCounts))
		} else {
			fmt.Fprintf(w, "%-14s simulated behaviour changed: this is not a speed-only difference\n", wl.name)
			code = 1
		}
	}
	return code
}
