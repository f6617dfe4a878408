package lp

// Benchmarks for the baseline cache's cold path: every reference allocation
// of a problem, and its LP optimum alone. Run them with
//
//	go test -run '^$' -bench . ./internal/lp

import (
	"testing"

	"mptcpsim/internal/topo"
)

// screenSlice is a fixed slice of the benchmark's screen_stream problems:
// v3-v4 retuned to eight of its 96 rates (20…67.5 Mbps), each with v2-v3 at
// 80 Mbps and renegotiated to 40.
func screenSlice() (*topo.PaperNet, []Caps) {
	pn := topo.Paper()
	var caps []Caps
	for i := 0; i < 96; i += 12 {
		for _, r := range []float64{80, 40} {
			caps = append(caps, Caps{pn.Bottlenecks[1]: 20 + float64(i)/2, pn.Bottlenecks[2]: r})
		}
	}
	return pn, caps
}

// benchCold solves every problem of the slice on an empty cache per
// iteration and reports the mean time per problem.
func benchCold(b *testing.B, solve func(*topo.Graph, []topo.Path, Caps) error) {
	pn, caps := screenSlice()
	defer ResetBaselineCache()
	for b.Loop() {
		ResetBaselineCache()
		for _, c := range caps {
			if err := solve(pn.Graph, pn.Paths, c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed())/1e3/float64(b.N*len(caps)), "us/solve")
}

// BenchmarkBaselinesCold is a cold CachedBaselinesCaps: the LP and
// max-min.
func BenchmarkBaselinesCold(b *testing.B) {
	benchCold(b, func(g *topo.Graph, paths []topo.Path, caps Caps) error {
		_, err := CachedBaselinesCaps(g, paths, caps)
		return err
	})
}

// BenchmarkOptimumCold is a cold CachedOptimumCaps: the LP alone, what a
// capacity epoch of a run needs.
func BenchmarkOptimumCold(b *testing.B) {
	benchCold(b, func(g *topo.Graph, paths []topo.Path, caps Caps) error {
		_, err := CachedOptimumCaps(g, paths, caps)
		return err
	})
}
