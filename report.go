package mptcpsim

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteCSV emits one row per run, in grid order.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"index", "scenario", "perturbation",
		"events", "cc", "scheduler", "order", "seed", "optimum_mbps",
		"target_mbps", "greedy_mbps", "total_mbps", "gap_pct", "converged",
		"conv_time_s", "post_cov", "err"}); err != nil {
		return err
	}
	for _, run := range r.Runs {
		// Blank, not 0.00, where there is no data: a failed run must not
		// read as a perfect gap, nor a non-converged one as instant
		// convergence.
		metrics := []string{"", "", "", "", "", "", "", ""}
		if run.Err == "" {
			metrics[5] = strconv.FormatBool(run.Converged)
			metrics[0] = fmt.Sprintf("%.2f", run.OptimumMbps)
			metrics[1] = fmt.Sprintf("%.2f", run.TargetMbps)
			metrics[2] = fmt.Sprintf("%.2f", run.GreedyMbps)
			metrics[3] = fmt.Sprintf("%.2f", run.TotalMbps)
			metrics[4] = fmt.Sprintf("%.2f", run.Gap*100)
			if run.Converged {
				metrics[6] = fmt.Sprintf("%.2f", run.ConvergedAtS)
			}
			metrics[7] = fmt.Sprintf("%.4f", run.PostCoV)
		}
		rec := append([]string{
			strconv.Itoa(run.Index), run.Scenario, run.Perturbation,
			run.Events, run.CC, run.Scheduler, run.OrderString(),
			strconv.FormatInt(run.Seed, 10),
		}, metrics...)
		if err := cw.Write(append(rec, run.Err)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteGroupsCSV emits one row per aggregated (scenario, perturbation, CC,
// scheduler) cell.
func (r *SweepResult) WriteGroupsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"scenario", "perturbation", "events", "cc",
		"scheduler", "runs", "errors", "converged", "mean_gap_pct",
		"min_gap_pct", "max_gap_pct", "mean_total_mbps",
		"mean_conv_time_s"}); err != nil {
		return err
	}
	for _, g := range r.Groups {
		// Empty cells, not 0.00, where there is no data: a dead group
		// must not read as a perfect gap, nor an unconverged one as
		// instant convergence.
		cells := []string{"", "", "", "", ""}
		if g.Runs > 0 {
			cells[0] = fmt.Sprintf("%.2f", g.Gap.Mean*100)
			cells[1] = fmt.Sprintf("%.2f", g.Gap.Min*100)
			cells[2] = fmt.Sprintf("%.2f", g.Gap.Max*100)
			cells[3] = fmt.Sprintf("%.2f", g.TotalMbps.Mean)
		}
		if g.Converged > 0 {
			cells[4] = fmt.Sprintf("%.2f", g.ConvergedAtS.Mean)
		}
		rec := append([]string{g.Scenario, g.Perturbation, g.Events, g.CC,
			g.Scheduler, strconv.Itoa(g.Runs), strconv.Itoa(g.Errors),
			strconv.Itoa(g.Converged)}, cells...)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the whole result (runs, groups, overall gap) as indented
// JSON, json.MarshalIndent's bytes, encoding one run, group or aggregate at
// a time. An encoding error can leave the output cut short.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var err error
	// put writes text, then v with its inner lines indented by prefix.
	put := func(text, prefix string, v any) {
		buf.Reset()
		enc.SetIndent(prefix, "  ")
		err = cmp.Or(err, enc.Encode(v))
		bw.WriteString(text)
		bw.Write(bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
	}
	// array writes text, then an array element by element, or an empty one
	// as the encoder does, [] or null.
	array := func(text string, n int, elem func(int) any, all any) {
		if n == 0 {
			put(text, "  ", all)
			return
		}
		bw.WriteString(text)
		sep := "["
		for i := range n {
			put(sep+"\n    ", "    ", elem(i))
			sep = ","
		}
		bw.WriteString("\n  ]")
	}
	array("{\n  \"runs\": ", len(r.Runs), func(i int) any { return &r.Runs[i] }, r.Runs)
	array(",\n  \"groups\": ", len(r.Groups), func(i int) any { return &r.Groups[i] }, r.Groups)
	put(",\n  \"gap\": ", "  ", &r.Gap)
	if r.Telemetry != nil {
		put(",\n  \"telemetry\": ", "  ", r.Telemetry)
	}
	bw.WriteString("\n}\n")
	return cmp.Or(err, bw.Flush())
}

// Report renders a human-readable aggregate table, groups sorted as
// encountered with the best mean gap flagged.
func (r *SweepResult) Report(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sweep: %d runs", len(r.Runs))
	if n := r.Errs(); n > 0 {
		fmt.Fprintf(&sb, " (%d failed)", n)
	}
	if r.Gap.N > 0 {
		fmt.Fprintf(&sb, ", gap mean %.1f%% median %.1f%% min %.1f%% max %.1f%%",
			r.Gap.Mean*100, r.Gap.Median*100, r.Gap.Min*100, r.Gap.Max*100)
	}
	sb.WriteString("\n\n")
	best := -1.0
	for _, g := range r.Groups {
		if g.Runs > 0 && (best < 0 || g.Gap.Mean < best) {
			best = g.Gap.Mean
		}
	}
	fmt.Fprintf(&sb, "%-10s %-8s %-8s %-8s %-10s %5s %5s  %-22s %s\n",
		"scenario", "pert", "events", "cc", "scheduler", "runs", "conv", "gap mean±std [min,max]", "")
	for _, g := range r.Groups {
		events := g.Events
		if events == "" {
			events = "static"
		}
		if g.Runs == 0 {
			fmt.Fprintf(&sb, "%-10s %-8s %-8s %-8s %-10s %5d %5d  (no completed runs, %d errors)\n",
				g.Scenario, g.Perturbation, events, g.CC, g.Scheduler, g.Runs, g.Converged, g.Errors)
			continue
		}
		mark := ""
		if g.Gap.Mean == best {
			mark = "  <- best"
		}
		fmt.Fprintf(&sb, "%-10s %-8s %-8s %-8s %-10s %5d %5d  %5.1f%% ±%4.1f [%5.1f,%5.1f]%s\n",
			g.Scenario, g.Perturbation, events, g.CC, g.Scheduler, g.Runs, g.Converged,
			g.Gap.Mean*100, g.Gap.Std*100, g.Gap.Min*100, g.Gap.Max*100, mark)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// SortRunsByGap returns run indices ordered by ascending gap (completed
// runs only) — the sweep's leaderboard.
func (r *SweepResult) SortRunsByGap() []int {
	var idx []int
	for i, run := range r.Runs {
		if run.Err == "" {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return r.Runs[idx[a]].Gap < r.Runs[idx[b]].Gap
	})
	return idx
}
