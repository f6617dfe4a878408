// Package route implements the forwarding planes of the simulated network.
//
// The primary router is the TagTable: deterministic per-(destination, tag)
// next hops, the mechanism the paper uses to pin each MPTCP subflow to a
// preselected path ("packets with the same tag are always routed along the
// same path towards the destination"). Unknown tags fail closed.
//
// An ECMP router is also provided for the datacenter example: it spreads
// flows across equal-cost shortest paths by symmetric flow hash, the way
// commodity switches do.
package route

import (
	"fmt"
	"math"

	"mptcpsim/internal/packet"
	"mptcpsim/internal/topo"
)

// Router chooses the outgoing link for a packet at a node. Implementations
// must be deterministic: the same packet at the same node always takes the
// same link.
type Router interface {
	NextLink(n topo.NodeID, pkt *packet.Packet) (topo.LinkID, error)
}

// NoRouteError reports a forwarding failure; the engine counts and drops
// such packets (fail closed, like a router with no FIB entry).
type NoRouteError struct {
	Node topo.NodeID
	Dst  packet.Addr
	Tag  packet.Tag
}

// Error implements error.
func (e *NoRouteError) Error() string {
	return fmt.Sprintf("route: no route at node %d for dst %s %s", e.Node, e.Dst, e.Tag)
}

type tagKey struct {
	dst packet.Addr
	tag packet.Tag
}

// tagEntry is one forwarding entry of a node.
type tagEntry struct {
	key tagKey
	lid topo.LinkID
}

// TagTable is a per-(destination, tag) forwarding table. Each node's
// entries live in a short slice scanned linearly: a node holds at most
// destinations × tags entries (16 on the widest shipped scenario), which a
// scan beats a map probe on, whether or not consecutive packets share a tag.
type TagTable struct {
	g    *topo.Graph
	next [][]tagEntry
}

// NewTagTable returns an empty tag-routing table over graph g.
func NewTagTable(g *topo.Graph) *TagTable {
	return &TagTable{g: g, next: make([][]tagEntry, g.NumNodes())}
}

// find returns node n's entry for key, or nil if it has none.
func (t *TagTable) find(n topo.NodeID, key tagKey) *tagEntry {
	for i := range t.next[n] {
		if e := &t.next[n][i]; e.key == key {
			return e
		}
	}
	return nil
}

// AddPath installs forwarding entries so that packets for dst carrying tag
// follow path p. It fails if an entry would conflict with one already
// installed (two different paths for the same (dst, tag) diverging at a
// node), which is exactly the determinism the tagging scheme promises.
func (t *TagTable) AddPath(dst packet.Addr, tag packet.Tag, p topo.Path) error {
	if !p.Valid(t.g) {
		return fmt.Errorf("route: AddPath: invalid path")
	}
	key := tagKey{dst: dst, tag: tag}
	// Validate before mutating so a conflict leaves the table unchanged.
	for i, lid := range p.Links {
		n := p.Nodes[i]
		if e := t.find(n, key); e != nil && e.lid != lid {
			return fmt.Errorf("route: conflicting entry at node %s for dst %s %s: link %d vs %d",
				t.g.Node(n).Name, dst, tag, e.lid, lid)
		}
	}
	for i, lid := range p.Links {
		n := p.Nodes[i]
		if e := t.find(n, key); e != nil {
			e.lid = lid
		} else {
			t.next[n] = append(t.next[n], tagEntry{key, lid})
		}
	}
	return nil
}

// AddDefaultRoutes installs shortest-path next hops towards dst (the node
// owning addr) for packets carrying TagNone, at every node that can reach
// it. Existing TagNone entries are preserved.
func (t *TagTable) AddDefaultRoutes(dst packet.Addr, dstNode topo.NodeID, w topo.Weight) {
	dist, prev := reverseShortest(t.g, dstNode, w)
	key := tagKey{dst: dst, tag: packet.TagNone}
	for _, n := range t.g.Nodes() {
		if n.ID == dstNode || math.IsInf(dist[n.ID], 1) {
			continue
		}
		if t.find(n.ID, key) == nil {
			t.next[n.ID] = append(t.next[n.ID], tagEntry{key, prev[n.ID]})
		}
	}
}

// NextLink implements Router. Lookup is exact on (dst, tag); packets with
// an unknown tag are not silently rerouted.
func (t *TagTable) NextLink(n topo.NodeID, pkt *packet.Packet) (topo.LinkID, error) {
	key := tagKey{dst: pkt.IP.Dst, tag: pkt.IP.Tag}
	if e := t.find(n, key); e != nil {
		return e.lid, nil
	}
	return -1, &NoRouteError{Node: n, Dst: key.dst, Tag: key.tag}
}

// reverseShortest runs Dijkstra towards dst over reversed links, returning
// for every node its distance and the first link of its shortest path to
// dst.
func reverseShortest(g *topo.Graph, dst topo.NodeID, w topo.Weight) ([]float64, []topo.LinkID) {
	if w == nil {
		w = topo.DelayWeight
	}
	n := g.NumNodes()
	dist := make([]float64, n)
	first := make([]topo.LinkID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		first[i] = -1
	}
	dist[dst] = 0
	// Incoming adjacency.
	in := make([][]topo.LinkID, n)
	for _, l := range g.Links() {
		in[l.To] = append(in[l.To], l.ID)
	}
	visited := make([]bool, n)
	for {
		u := topo.NodeID(-1)
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if !visited[i] && dist[i] < best {
				best, u = dist[i], topo.NodeID(i)
			}
		}
		if u < 0 {
			break
		}
		visited[u] = true
		for _, lid := range in[u] {
			l := g.Link(lid)
			nd := dist[u] + w(l)
			if nd < dist[l.From] {
				dist[l.From] = nd
				first[l.From] = lid
			}
		}
	}
	return dist, first
}

// ECMP is an equal-cost multi-path router: at every node it precomputes the
// set of outgoing links lying on some shortest path to each destination and
// picks among them by the packet's symmetric flow hash, so a flow (and its
// reverse direction) stays on one path while different flows spread.
type ECMP struct {
	g *topo.Graph
	// links[node][dstAddr] = candidate next-hop links, in link-ID order.
	links map[topo.NodeID]map[packet.Addr][]topo.LinkID
}

// NewECMP builds ECMP state for the given destinations (addr -> node).
func NewECMP(g *topo.Graph, dests map[packet.Addr]topo.NodeID, w topo.Weight) *ECMP {
	if w == nil {
		w = topo.DelayWeight
	}
	e := &ECMP{g: g, links: make(map[topo.NodeID]map[packet.Addr][]topo.LinkID)}
	const eps = 1e-12
	for addr, dstNode := range dests {
		dist, _ := reverseShortest(g, dstNode, w)
		for _, n := range g.Nodes() {
			if n.ID == dstNode || math.IsInf(dist[n.ID], 1) {
				continue
			}
			var cands []topo.LinkID
			for _, lid := range g.OutLinks(n.ID) {
				l := g.Link(lid)
				if math.Abs(dist[n.ID]-(w(l)+dist[l.To])) <= eps {
					cands = append(cands, lid)
				}
			}
			if len(cands) == 0 {
				continue
			}
			if e.links[n.ID] == nil {
				e.links[n.ID] = make(map[packet.Addr][]topo.LinkID)
			}
			e.links[n.ID][addr] = cands
		}
	}
	return e
}

// NextLink implements Router.
func (e *ECMP) NextLink(n topo.NodeID, pkt *packet.Packet) (topo.LinkID, error) {
	cands := e.links[n][pkt.IP.Dst]
	if len(cands) == 0 {
		return -1, &NoRouteError{Node: n, Dst: pkt.IP.Dst, Tag: pkt.IP.Tag}
	}
	h := pkt.Flow().FastHash()
	return cands[h%uint64(len(cands))], nil
}
