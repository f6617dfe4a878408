package topo

import (
	"time"

	"mptcpsim/internal/unit"
)

// PaperNet is the network of Fig. 1a of the paper, together with the three
// overlapping s->d paths of Fig. 1b. Every pair of paths shares exactly one
// binding bottleneck:
//
//	Path 1 and Path 2 share s-v1   (40 Mbps)  =>  x1+x2 <= 40
//	Path 2 and Path 3 share v3-v4  (60 Mbps)  =>  x2+x3 <= 60
//	Path 1 and Path 3 share v2-v3  (80 Mbps)  =>  x1+x3 <= 80
//
// All other links have the default capacity of 100 Mbps and never bind.
// The LP optimum is x1=30, x2=10, x3=50 (total 90), the unique optimum of
// these constraints; the paper text lists the same values with the indices
// of x1 and x2 swapped, a labelling typo.
//
// Link delays are chosen so that Path 2 is the shortest path by round-trip
// time (one-way 4 ms vs 7 ms), matching the paper's measurement setup where
// Path 2 is the default subflow.
type PaperNet struct {
	Graph *Graph
	// S and D are the source and destination hosts.
	S, D NodeID
	// Paths holds Path 1, Path 2 and Path 3 in the paper's order.
	Paths []Path
	// Bottlenecks holds the directed link IDs of the three shared
	// bottlenecks, in constraint order: s-v1, v3-v4, v2-v3.
	Bottlenecks []LinkID
}

// Paper capacities.
const (
	PaperCapSV1  = 40 * unit.Mbps
	PaperCapV3V4 = 60 * unit.Mbps
	PaperCapV2V3 = 80 * unit.Mbps
	PaperCapDef  = 100 * unit.Mbps
)

// Paper builds the Fig. 1a network.
func Paper() *PaperNet {
	g := New()
	s := g.AddNode("s")
	v1 := g.AddNode("v1")
	v2 := g.AddNode("v2")
	v3 := g.AddNode("v3")
	v4 := g.AddNode("v4")
	d := g.AddNode("d")

	ms := time.Millisecond
	sv1, _ := g.AddDuplex(s, v1, PaperCapSV1, 1*ms, 0)
	v1v2, _ := g.AddDuplex(v1, v2, PaperCapDef, 2*ms, 0)
	v2v3, _ := g.AddDuplex(v2, v3, PaperCapV2V3, 2*ms, 0)
	// v3-d carries Path 1's tail; its delay is 4 ms so that the shortcut
	// s->v1->v3->d (6 ms) never beats Path 2 (4 ms) as the shortest route.
	v3d, _ := g.AddDuplex(v3, d, PaperCapDef, 4*ms, 0)
	v1v3, _ := g.AddDuplex(v1, v3, PaperCapDef, 1*ms, 0)
	v3v4, _ := g.AddDuplex(v3, v4, PaperCapV3V4, 1*ms, 0)
	v4d, _ := g.AddDuplex(v4, d, PaperCapDef, 1*ms, 0)
	sv2, _ := g.AddDuplex(s, v2, PaperCapDef, 3*ms, 0)

	p1 := Path{Nodes: []NodeID{s, v1, v2, v3, d}, Links: []LinkID{sv1, v1v2, v2v3, v3d}}
	p2 := Path{Nodes: []NodeID{s, v1, v3, v4, d}, Links: []LinkID{sv1, v1v3, v3v4, v4d}}
	p3 := Path{Nodes: []NodeID{s, v2, v3, v4, d}, Links: []LinkID{sv2, v2v3, v3v4, v4d}}

	return &PaperNet{
		Graph:       g,
		S:           s,
		D:           d,
		Paths:       []Path{p1, p2, p3},
		Bottlenecks: []LinkID{sv1, v3v4, v2v3},
	}
}
