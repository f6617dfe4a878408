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

// ExampleNewNetwork assembles a custom two-path topology and reports its
// optimum.
func ExampleNewNetwork() {
	nw := mptcpsim.NewNetwork()
	nw.AddLink("phone", "wifi", 30, 3*time.Millisecond)
	nw.AddLink("wifi", "server", 100, 5*time.Millisecond)
	nw.AddLink("phone", "lte", 20, 15*time.Millisecond)
	nw.AddLink("lte", "server", 100, 10*time.Millisecond)
	if err := nw.Endpoints("phone", "server"); err != nil {
		log.Fatal(err)
	}
	if _, err := nw.AddPath("phone", "wifi", "server"); err != nil {
		log.Fatal(err)
	}
	if _, err := nw.AddPath("phone", "lte", "server"); err != nil {
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

// ExampleNetwork_AddEvent scripts a Wi-Fi outage on a phone with Wi-Fi
// (40 Mbps) and LTE (25 Mbps): the radio dies at 2 s and returns at 3 s.
// The LP baseline is re-solved per capacity epoch, so the outage is scored
// against the 25 Mbps the surviving path allows, not the static 65.
func ExampleNetwork_AddEvent() {
	nw := mptcpsim.NewNetwork()
	nw.AddLink("phone", "wifi-ap", 40, 3*time.Millisecond)
	nw.AddLink("phone", "lte-enb", 25, 15*time.Millisecond)
	nw.AddLink("wifi-ap", "server", 1000, 7*time.Millisecond)
	nw.AddLink("lte-enb", "server", 1000, 15*time.Millisecond)
	if err := nw.Endpoints("phone", "server"); err != nil {
		log.Fatal(err)
	}
	for _, path := range [][]string{{"phone", "wifi-ap", "server"}, {"phone", "lte-enb", "server"}} {
		if _, err := nw.AddPath(path...); err != nil {
			log.Fatal(err)
		}
	}
	for _, e := range []mptcpsim.Event{
		{At: 2 * time.Second, Type: mptcpsim.EventLinkDown, A: "phone", B: "wifi-ap"},
		{At: 3 * time.Second, Type: mptcpsim.EventLinkUp, A: "phone", B: "wifi-ap"},
	} {
		if err := nw.AddEvent(e); err != nil {
			log.Fatal(err)
		}
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
	fabric := func() *mptcpsim.Network {
		nw := mptcpsim.NewNetwork()
		nw.AddLink("hostA", "tor1", 40, 100*time.Microsecond)
		nw.AddLink("hostB", "tor2", 40, 100*time.Microsecond)
		for s := 1; s <= spines; s++ {
			spine := fmt.Sprintf("spine%d", s)
			nw.AddLink("tor1", spine, 10, 500*time.Microsecond)
			nw.AddLink(spine, "tor2", 10, 500*time.Microsecond)
		}
		if err := nw.Endpoints("hostA", "hostB"); err != nil {
			log.Fatal(err)
		}
		for s := 1; s <= spines; s++ {
			if _, err := nw.AddPath("hostA", "tor1", fmt.Sprintf("spine%d", s), "tor2", "hostB"); err != nil {
				log.Fatal(err)
			}
		}
		return nw
	}
	single, err := mptcpsim.Run(fabric(), mptcpsim.Options{CC: "cubic", Duration: 3 * time.Second, SubflowPaths: []int{1}})
	if err != nil {
		log.Fatal(err)
	}
	multi, err := mptcpsim.Run(fabric(), mptcpsim.Options{CC: "olia", Duration: 3 * time.Second})
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
