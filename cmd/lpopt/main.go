// Command lpopt prints the paper's throughput optimisation problem and its
// analytic solutions: the LP optimum (Fig. 1c), the greedy/Pareto trap,
// the max-min fair allocation and the proportionally fair allocation.
//
// With -k N it instead offers the N shortest paths of the network (Yen's
// algorithm) to the optimiser, showing how the achievable optimum changes
// with the path choice the tagging layer makes available.
package main

import (
	"flag"
	"fmt"
	"os"

	"mptcpsim/internal/lp"
	"mptcpsim/internal/topo"
)

func main() {
	var (
		k = flag.Int("k", 0, "use the k shortest s->d paths instead of the paper's three")
	)
	flag.Parse()

	pn := topo.Paper()
	paths := pn.Paths
	if *k > 0 {
		paths = pn.Graph.KShortestPaths(pn.S, pn.D, *k, nil)
	}
	fmt.Printf("Network: %d nodes, %d directed links\n", pn.Graph.NumNodes(), pn.Graph.NumLinks())
	for i, p := range paths {
		fmt.Printf("  Path %d: %-28s (one-way delay %v, bottleneck %v)\n",
			i+1, p.Format(pn.Graph), p.Delay(pn.Graph), p.BottleneckRate(pn.Graph))
	}
	fmt.Println()

	prob := lp.MaxThroughput(pn.Graph, paths)
	fmt.Print(prob.String())
	sol, err := prob.Solve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpopt:", err)
		os.Exit(1)
	}
	if sol.Status != lp.Optimal {
		fmt.Fprintln(os.Stderr, "lpopt: LP is", sol.Status)
		os.Exit(1)
	}
	fmt.Println()
	show := func(name string, x []float64) {
		fmt.Printf("%-22s total %6.2f Mbps  at ", name, lp.TotalMbit(x))
		for i, v := range x {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("x%d=%.2f", i+1, v)
		}
		fmt.Println()
	}
	show("LP optimum:", sol.X)
	order := make([]int, len(paths))
	for i := range order {
		order[i] = i
	}
	if len(paths) == 3 {
		// Mirror the measurement setup: the default path (Path 2) first.
		order = []int{1, 0, 2}
	}
	show("greedy (default 1st):", lp.GreedySequential(pn.Graph, paths, order))
	show("max-min fair:", lp.MaxMin(pn.Graph, paths))
	show("proportional fair:", lp.PropFair(pn.Graph, paths))

	binding := prob.BindingConstraints(sol.X, 1e-6)
	fmt.Println()
	fmt.Println("binding constraints at the optimum:")
	for _, bi := range binding {
		fmt.Printf("  %s\n", prob.RowNames[bi])
	}
}
