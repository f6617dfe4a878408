package mptcpsim_test

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"mptcpsim"
	"mptcpsim/internal/check"
	"mptcpsim/internal/cli"
)

// refsEnv runs TestReferenceNearness, a measurement of about a minute on
// two cores:
//
//	MPTCPSIM_REFS=1 go test -run TestReferenceNearness -v -timeout 30m .
const refsEnv = "MPTCPSIM_REFS"

// nearRefs are the reference allocations a run's path means are measured
// against, in the order a tie for the nearest is broken: the optimum
// first and the greedy trap last.
var nearRefs = []struct {
	name string
	of   func(*mptcpsim.Result) []float64
}{
	{"optimum", func(r *mptcpsim.Result) []float64 { return r.Optimum.PerPath }},
	{"max-min", func(r *mptcpsim.Result) []float64 { return r.MaxMin }},
	{"greedy", func(r *mptcpsim.Result) []float64 { return r.Greedy }},
}

// nearTally counts, for one CC in one measurement, the runs nearest each
// reference, the runs nearer the optimum than the greedy trap, and the runs
// nearer the trap than the optimum (where the two coincide, neither).
type nearTally struct {
	runs, escaped, trapped int
	nearest                []int
}

// nearSink measures every run it is handed: means picks the path means and
// the optimum they are normalised by (the whole run's, or one epoch's).
type nearSink struct {
	means func(*mptcpsim.Result) (pathMeans []float64, optTotal float64)
	byCC  map[string]*nearTally
	errs  []string
}

func (s *nearSink) Accept(_, _ int, sum mptcpsim.RunSummary, res *mptcpsim.Result) error {
	if sum.Err != "" {
		s.errs = append(s.errs, fmt.Sprintf("run %d (%s): %s", sum.Index, sum.CC, sum.Err))
		return nil
	}
	t := s.byCC[sum.CC]
	if t == nil {
		t = &nearTally{nearest: make([]int, len(nearRefs))}
		s.byCC[sum.CC] = t
	}
	pm, opt := s.means(res)
	d := make([]float64, len(nearRefs))
	for i, ref := range nearRefs {
		d[i] = l1(pm, ref.of(res)) / opt
	}
	t.runs++
	t.nearest[slices.Index(d, slices.Min(d))]++
	switch last := d[len(d)-1]; {
	case d[0] < last:
		t.escaped++
	case last < d[0]:
		t.trapped++
	}
	return nil
}

func (s *nearSink) Close() error { return nil }

// l1 is the L1 distance between two allocations; a missing entry is 0.
func l1(a, b []float64) (d float64) {
	for i := range max(len(a), len(b)) {
		var x, y float64
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		d += math.Abs(x - y)
	}
	return d
}

// wilson is the 95 % Wilson score interval of k successes in n trials.
func wilson(k, n int) (lo, hi float64) {
	const z = 1.959963984540054
	p, nf := float64(k)/float64(n), float64(n)
	den := 1 + z*z/nf
	mid := (p + z*z/(2*nf)) / den
	half := z / den * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	return max(mid-half, 0), min(mid+half, 1)
}

// nearTable renders one measurement as a markdown table, one row per CC in
// ccs order.
func nearTable(title string, ccs []string, byCC map[string]*nearTally) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n\n| CC | runs |", title)
	for _, ref := range nearRefs {
		fmt.Fprintf(&sb, " nearest %s |", ref.name)
	}
	sb.WriteString(" d(optimum) < d(greedy) [95 % CI] | d(greedy) < d(optimum) [95 % CI] |\n|---|---|" +
		strings.Repeat("---|", len(nearRefs)+2) + "\n")
	for _, cc := range ccs {
		t := byCC[cc]
		if t == nil {
			continue
		}
		fmt.Fprintf(&sb, "| %s | %d |", cc, t.runs)
		for _, k := range t.nearest {
			fmt.Fprintf(&sb, " %d |", k)
		}
		for _, k := range []int{t.escaped, t.trapped} {
			lo, hi := wilson(k, t.runs)
			fmt.Fprintf(&sb, " %d [%.2f, %.2f] |", k, lo, hi)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestReferenceNearness measures which reference allocation the
// controllers land nearest: the LP optimum, max-min or the greedy trap. A
// run's distance to a reference is the L1 distance of its path means from
// it, normalised by the optimum's total. It runs the default sweep grid
// (six CCs x four orders) at seeds 1-20 for 4 s and for 25 s, measured on
// Summary.PathMeans, the 200 seed-1 corpus scenarios, measured on their
// first capacity epoch, and the 200 specs of the trap set with their events
// stripped (the network the set was selected on), each with its own CC,
// scheduler, order and seed, for 4 s and for 25 s on Summary.PathMeans.
// Per CC it reports how many runs are nearest each reference and, with
// their 95 % Wilson intervals, the shares nearer the optimum than greedy
// and nearer greedy than the optimum.
func TestReferenceNearness(t *testing.T) {
	if os.Getenv(refsEnv) != "1" {
		t.Skipf("set %s=1 to run the reference-nearness measurement", refsEnv)
	}
	grid, err := cli.LoadGrid("")
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(1); s <= 20; s++ {
		grid.Seeds = append(grid.Seeds, s)
	}
	whole := func(r *mptcpsim.Result) ([]float64, float64) { return r.Summary.PathMeans, r.Optimum.Total }
	firstEpoch := func(r *mptcpsim.Result) ([]float64, float64) {
		return r.Epochs[0].PathMeans, r.Epochs[0].Optimum.Total
	}

	var tables []string
	measure := func(title string, ccs []string, runs []mptcpsim.RunSpec, means func(*mptcpsim.Result) ([]float64, float64)) {
		sink := &nearSink{means: means, byCC: map[string]*nearTally{}}
		if err := (&mptcpsim.Sweep{}).Execute(runs, sink); err != nil {
			t.Fatal(err)
		}
		for _, e := range sink.errs {
			t.Error(e)
		}
		tables = append(tables, nearTable(title, ccs, sink.byCC))
	}
	for _, d := range []time.Duration{4 * time.Second, 25 * time.Second} {
		grid.DurationMs = float64(d.Milliseconds())
		runs, err := grid.Expand()
		if err != nil {
			t.Fatal(err)
		}
		measure(fmt.Sprintf("Default grid, %v, seeds 1-20:", d), grid.CCs, runs, whole)
	}
	corpus := make([]mptcpsim.RunSpec, 200)
	for i := range corpus {
		rs, err := check.NewSpec(check.SpecSeed(1, i)).Grid().Expand()
		if err != nil {
			t.Fatal(err)
		}
		corpus[i] = rs[0]
		corpus[i].Index = i
	}
	measure("Corpus (200 scenarios, seed 1), first epoch:", grid.CCs, corpus, firstEpoch)
	set := trapSet(t)
	for _, d := range []time.Duration{4 * time.Second, 25 * time.Second} {
		trap := make([]mptcpsim.RunSpec, len(set))
		for k, i := range set {
			sp := check.NewSpec(check.SpecSeed(1, i))
			sp.Scenario.Events = nil
			sp.Options.Duration = d
			rs, err := sp.Grid().Expand()
			if err != nil {
				t.Fatal(err)
			}
			trap[k] = rs[0]
			trap[k].Index = k
		}
		measure(fmt.Sprintf("Trap set (%d scenarios, events stripped), %v:", len(set), d), grid.CCs, trap, whole)
	}
	t.Log("\n" + strings.Join(tables, "\n"))
}
