package cli

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mptcpsim"
)

// LoadGrid reads the grid spec and resolves scenario file references
// relative to the spec's directory. An empty path yields the default
// paper grid: the six congestion controls crossed with four subflow
// orderings.
func LoadGrid(path string) (*mptcpsim.Grid, error) {
	if path == "" {
		return &mptcpsim.Grid{
			CCs:    []string{"lia", "olia", "balia", "cubic", "reno", "wvegas"},
			Orders: [][]int{{2, 1, 3}, {1, 2, 3}, {3, 1, 2}, {1, 3, 2}},
		}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	grid, err := mptcpsim.LoadGrid(f)
	if err != nil {
		return nil, err
	}
	for i, sc := range grid.Scenarios {
		if sc.File == "" || sc.Scenario != nil {
			continue
		}
		ref := sc.File
		if !filepath.IsAbs(ref) {
			ref = filepath.Join(filepath.Dir(path), ref)
		}
		sf, err := os.Open(ref)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		inline, err := mptcpsim.LoadScenario(sf)
		sf.Close()
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		// Expand build-validates every scenario, so decoding suffices here.
		// The file reference is now resolved; clear it so Expand's
		// exactly-one-selector check sees a plain inline scenario.
		grid.Scenarios[i].Scenario = inline
		grid.Scenarios[i].File = ""
		// Default to the path as written, not its basename: two files
		// named net.json in different directories must stay distinct.
		if grid.Scenarios[i].Name == "" {
			grid.Scenarios[i].Name = sc.File
		}
	}
	return grid, nil
}

// pct renders a/b as a percentage (0 when b is 0).
func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Report renders the aggregate table, the telemetry rollup when the result
// carries one, and the best run to stdout, then writes the -csv/-groups/
// -json files. Failed runs do not stop the rendering; they are the
// returned error, after everything is written.
func (f *Flags) Report(res *mptcpsim.SweepResult, stdout io.Writer) error {
	if err := res.Report(stdout); err != nil {
		return err
	}
	// The rollup is pure simulation counts (no wall clock), so it belongs
	// in the deterministic report.
	if t := res.Telemetry; t != nil {
		fmt.Fprintf(stdout, "\ntelemetry: %d runs, %d events fired (%d scheduled, %.1f%% recycled), heap peak %d\n",
			t.Runs, t.EventsFired, t.EventsScheduled,
			pct(t.Recycled, t.EventsScheduled), t.HeapPeak)
		fmt.Fprintf(stdout, "telemetry: %d packets tx (%d offered, %d dropped), %d RTOs, %d fast recoveries, %d sched picks\n",
			t.TxPackets, t.Offered, t.Drops, t.RTOs, t.FastRecoveries, t.SchedPicks)
	}
	if idx := res.SortRunsByGap(); len(idx) > 0 {
		best := res.Runs[idx[0]]
		fmt.Fprintf(stdout, "\nbest run: %s/%s cc=%s order=%s seed=%d at %.1f of %.1f Mbps (gap %.1f%%)\n",
			best.Scenario, best.Perturbation, best.CC, best.OrderString(),
			best.Seed, best.TotalMbps, best.OptimumMbps, best.Gap*100)
	}

	for _, out := range []struct {
		path string
		fn   func(io.Writer) error
	}{
		{f.CSV, res.WriteCSV},
		{f.Groups, res.WriteGroupsCSV},
		{f.JSON, res.WriteJSON},
	} {
		if out.path == "" {
			continue
		}
		if err := WriteFile(out.path, out.fn); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", out.path)
	}
	if n := res.Errs(); n > 0 {
		return fmt.Errorf("%d of %d runs failed", n, len(res.Runs))
	}
	return nil
}

// WriteFile creates path and fills it through fn, reporting a failed close
// like a failed write.
func WriteFile(path string, fn func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
