// Package topo models the network topology: nodes, directed capacitated
// links, and the explicit paths an experiment pins between its endpoints.
// Paths are given, never computed: the paper tags each subflow onto a fixed
// path. Overlap analysis (PathsByLink) identifies which links paths share —
// the source of the paper's coupled throughput constraints — and Paper
// builds the Fig. 1a network with its three overlapping paths.
package topo

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"mptcpsim/internal/unit"
)

// NodeID identifies a node within one Graph.
type NodeID int

// LinkID identifies a directed link within one Graph.
type LinkID int

// Node is a switch or host in the topology.
type Node struct {
	ID   NodeID
	Name string
}

// Link is a directed capacitated link. Graphs are built from directed links
// so asymmetric capacities are expressible; AddDuplex adds both directions
// at once.
type Link struct {
	ID       LinkID
	From, To NodeID
	// Rate is the transmission capacity.
	Rate unit.Rate
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Queue is the buffer capacity of the transmit queue. Zero means "let
	// the engine pick a default" (one bandwidth-delay product).
	Queue unit.ByteSize
}

// Graph is a directed multigraph of nodes and links. The zero value is not
// usable; call New.
type Graph struct {
	nodes  []Node
	links  []Link
	out    map[NodeID][]LinkID
	byName map[string]NodeID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		out:    make(map[NodeID][]LinkID),
		byName: make(map[string]NodeID),
	}
}

// AddNode adds a named node and returns its ID. Adding a duplicate name
// returns the existing node's ID, so builders can be idempotent.
func (g *Graph) AddNode(name string) NodeID {
	if id, ok := g.byName[name]; ok {
		return id
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name})
	g.byName[name] = id
	return id
}

// NodeByName looks a node up by name.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// AddLink adds a directed link and returns its ID.
func (g *Graph) AddLink(from, to NodeID, rate unit.Rate, delay time.Duration, queue unit.ByteSize) LinkID {
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, From: from, To: to, Rate: rate, Delay: delay, Queue: queue})
	g.out[from] = append(g.out[from], id)
	return id
}

// AddDuplex adds both directions of a symmetric link and returns their IDs.
func (g *Graph) AddDuplex(a, b NodeID, rate unit.Rate, delay time.Duration, queue unit.ByteSize) (LinkID, LinkID) {
	return g.AddLink(a, b, rate, delay, queue), g.AddLink(b, a, rate, delay, queue)
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the directed-link count.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns a node by ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Link returns a link by ID.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Links returns all links in ID order. The returned slice must not be
// modified.
func (g *Graph) Links() []Link { return g.links }

// Nodes returns all nodes in ID order. The returned slice must not be
// modified.
func (g *Graph) Nodes() []Node { return g.nodes }

// FindLink returns the first link from one node to another.
func (g *Graph) FindLink(from, to NodeID) (LinkID, bool) {
	for _, id := range g.out[from] {
		if g.links[id].To == to {
			return id, true
		}
	}
	return -1, false
}

// Validate checks structural invariants: positive rates, non-negative
// delays, endpoints in range.
func (g *Graph) Validate() error {
	for _, l := range g.links {
		if l.Rate <= 0 {
			return fmt.Errorf("topo: link %d (%s->%s) has non-positive rate",
				l.ID, g.name(l.From), g.name(l.To))
		}
		if l.Delay < 0 {
			return fmt.Errorf("topo: link %d has negative delay", l.ID)
		}
		if int(l.From) >= len(g.nodes) || int(l.To) >= len(g.nodes) || l.From < 0 || l.To < 0 {
			return fmt.Errorf("topo: link %d endpoint out of range", l.ID)
		}
		if l.From == l.To {
			return fmt.Errorf("topo: link %d is a self-loop", l.ID)
		}
	}
	return nil
}

func (g *Graph) name(n NodeID) string {
	if int(n) < len(g.nodes) {
		return g.nodes[n].Name
	}
	return fmt.Sprintf("node(%d)", n)
}

// Path is a loop-free walk: n distinct nodes joined by n-1 links.
type Path struct {
	Nodes []NodeID
	Links []LinkID
}

// Valid reports whether the node and link sequences are consistent with
// graph g and no node repeats.
func (p Path) Valid(g *Graph) bool {
	if len(p.Nodes) != len(p.Links)+1 || len(p.Nodes) == 0 {
		return false
	}
	for i, lid := range p.Links {
		if slices.Contains(p.Nodes[:i+1], p.Nodes[i+1]) {
			return false
		}
		if int(lid) >= g.NumLinks() || lid < 0 {
			return false
		}
		l := g.Link(lid)
		if l.From != p.Nodes[i] || l.To != p.Nodes[i+1] {
			return false
		}
	}
	return true
}

// Format renders the path as "s -> v1 -> d".
func (p Path) Format(g *Graph) string {
	parts := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		parts[i] = g.name(n)
	}
	return strings.Join(parts, " -> ")
}

// PathsByLink inverts a path list: for every link used by at least one
// path, it lists the indices of the paths crossing it. This is the raw
// material of the paper's throughput constraints (one inequality per
// shared link).
func PathsByLink(paths []Path) map[LinkID][]int {
	m := make(map[LinkID][]int)
	for i, p := range paths {
		for _, l := range p.Links {
			m[l] = append(m[l], i)
		}
	}
	return m
}

// ReversePath returns the path traversing the same nodes in the opposite
// direction, using the reverse direction of each duplex link. It fails if
// any hop has no reverse link.
func ReversePath(g *Graph, p Path) (Path, error) {
	n := len(p.Nodes)
	rev := Path{Nodes: make([]NodeID, n), Links: make([]LinkID, len(p.Links))}
	for i, node := range p.Nodes {
		rev.Nodes[n-1-i] = node
	}
	for i := len(p.Links) - 1; i >= 0; i-- {
		l := g.Link(p.Links[i])
		back, ok := g.FindLink(l.To, l.From)
		if !ok {
			return Path{}, fmt.Errorf("topo: no reverse link for %s->%s", g.name(l.From), g.name(l.To))
		}
		rev.Links[len(p.Links)-1-i] = back
	}
	return rev, nil
}
