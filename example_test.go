package mptcpsim_test

import (
	"fmt"
	"log"
	"time"

	"mptcpsim"
)

// ExampleRunPaper runs the paper's experiment briefly and prints the
// analytic baselines, which are exact and deterministic.
func ExampleRunPaper() {
	res, err := mptcpsim.RunPaper(mptcpsim.Options{
		CC:       "cubic",
		Duration: 200 * time.Millisecond, // the LP does not depend on the run
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LP optimum: %.0f Mbps at x1=%.0f x2=%.0f x3=%.0f\n",
		res.Optimum.Total, res.Optimum.PerPath[0], res.Optimum.PerPath[1], res.Optimum.PerPath[2])
	fmt.Printf("greedy trap: %.0f Mbps\n", res.Greedy[0]+res.Greedy[1]+res.Greedy[2])
	fmt.Printf("max-min fair: %.0f Mbps\n", res.MaxMin[0]+res.MaxMin[1]+res.MaxMin[2])
	// Output:
	// LP optimum: 90 Mbps at x1=30 x2=10 x3=50
	// greedy trap: 60 Mbps
	// max-min fair: 80 Mbps
}

// ExampleScenarioFile_Build describes a custom two-path topology, builds
// it and reports its optimum.
func ExampleScenarioFile_Build() {
	sf := &mptcpsim.ScenarioFile{
		Links: []mptcpsim.ScenarioLink{
			{A: "phone", B: "wifi", Mbps: 30, DelayMs: 3},
			{A: "wifi", B: "server", Mbps: 100, DelayMs: 5},
			{A: "phone", B: "lte", Mbps: 20, DelayMs: 15},
			{A: "lte", B: "server", Mbps: 100, DelayMs: 10},
		},
		Paths: []mptcpsim.ScenarioPath{
			{Nodes: []string{"phone", "wifi", "server"}},
			{Nodes: []string{"phone", "lte", "server"}},
		},
	}
	sf.Endpoints.Src, sf.Endpoints.Dst = "phone", "server"
	nw, err := sf.Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := mptcpsim.Run(nw, mptcpsim.Options{CC: "lia", Duration: 200 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("disjoint paths aggregate to %.0f Mbps\n", res.Optimum.Total)
	// Output:
	// disjoint paths aggregate to 50 Mbps
}

// ExampleScenarioFile_events scripts a Wi-Fi outage on a phone with Wi-Fi
// (40 Mbps) and LTE (25 Mbps): the radio dies at 2 s and returns at 3 s.
// The LP baseline is re-solved per capacity epoch, so the outage is scored
// against the 25 Mbps the surviving path allows, not the static 65.
func ExampleScenarioFile_events() {
	sf := &mptcpsim.ScenarioFile{
		Links: []mptcpsim.ScenarioLink{
			{A: "phone", B: "wifi-ap", Mbps: 40, DelayMs: 3},
			{A: "phone", B: "lte-enb", Mbps: 25, DelayMs: 15},
			{A: "wifi-ap", B: "server", Mbps: 1000, DelayMs: 7},
			{A: "lte-enb", B: "server", Mbps: 1000, DelayMs: 15},
		},
		Paths: []mptcpsim.ScenarioPath{
			{Nodes: []string{"phone", "wifi-ap", "server"}},
			{Nodes: []string{"phone", "lte-enb", "server"}},
		},
		Events: []mptcpsim.ScenarioEvent{
			{AtMs: 2000, Type: mptcpsim.EventLinkDown, A: "phone", B: "wifi-ap"},
			{AtMs: 3000, Type: mptcpsim.EventLinkUp, A: "phone", B: "wifi-ap"},
		},
	}
	sf.Endpoints.Src, sf.Endpoints.Dst = "phone", "server"
	nw, err := sf.Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := mptcpsim.Run(nw, mptcpsim.Options{CC: "cubic", Duration: 8 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	for _, ep := range res.Epochs {
		fmt.Printf("epoch [%v, %v): optimum %.0f Mbps\n", ep.Start, ep.End, ep.Optimum.Total)
	}
	outage, after := res.Epochs[1], res.Epochs[2]
	fmt.Println("Wi-Fi carried < 1 Mbps during the outage:", outage.PathMeans[0] < 1)
	fmt.Println("LTE carried > 10 Mbps during the outage:", outage.PathMeans[1] > 10)
	fmt.Println("re-converged after Wi-Fi came back:", after.Converged)
	// Output:
	// epoch [0s, 2s): optimum 65 Mbps
	// epoch [2s, 3s): optimum 25 Mbps
	// epoch [3s, 8s): optimum 65 Mbps
	// Wi-Fi carried < 1 Mbps during the outage: true
	// LTE carried > 10 Mbps during the outage: true
	// re-converged after Wi-Fi came back: true
}

// ExampleRun_fabric is the datacenter case the paper cites: a leaf-spine
// fabric offers four equal-cost paths between two racks, single-path TCP
// hashes onto one of them, and MPTCP with one subflow per spine uses them
// all.
func ExampleRun_fabric() {
	const spines = 4
	fabric := &mptcpsim.ScenarioFile{Links: []mptcpsim.ScenarioLink{
		{A: "hostA", B: "tor1", Mbps: 40, DelayMs: 0.1},
		{A: "hostB", B: "tor2", Mbps: 40, DelayMs: 0.1},
	}}
	for s := 1; s <= spines; s++ {
		spine := fmt.Sprintf("spine%d", s)
		fabric.Links = append(fabric.Links,
			mptcpsim.ScenarioLink{A: "tor1", B: spine, Mbps: 10, DelayMs: 0.5},
			mptcpsim.ScenarioLink{A: spine, B: "tor2", Mbps: 10, DelayMs: 0.5})
		fabric.Paths = append(fabric.Paths,
			mptcpsim.ScenarioPath{Nodes: []string{"hostA", "tor1", spine, "tor2", "hostB"}})
	}
	fabric.Endpoints.Src, fabric.Endpoints.Dst = "hostA", "hostB"
	nw, err := fabric.Build()
	if err != nil {
		log.Fatal(err)
	}
	single, err := mptcpsim.Run(nw, mptcpsim.Options{CC: "cubic", Duration: 3 * time.Second, SubflowPaths: []int{1}})
	if err != nil {
		log.Fatal(err)
	}
	multi, err := mptcpsim.Run(nw, mptcpsim.Options{CC: "olia", Duration: 3 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LP optimum over %d spines: %.0f Mbps\n", spines, multi.Optimum.Total)
	fmt.Printf("MPTCP over %d spines carries more than 2× single-path TCP: %v\n",
		spines, multi.Summary.TotalMean > 2*single.Summary.TotalMean)
	// Output:
	// LP optimum over 4 spines: 40 Mbps
	// MPTCP over 4 spines carries more than 2× single-path TCP: true
}
