// Package route implements the forwarding plane of the simulated network:
// the TagTable, deterministic per-(destination, tag) next hops, the
// mechanism the paper uses to pin each MPTCP subflow to a preselected path
// ("packets with the same tag are always routed along the same path towards
// the destination"). Unknown tags fail closed.
package route

import (
	"fmt"

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

// NextLink implements Router. Lookup is exact on (dst, tag); packets with
// an unknown tag are not silently rerouted.
func (t *TagTable) NextLink(n topo.NodeID, pkt *packet.Packet) (topo.LinkID, error) {
	key := tagKey{dst: pkt.IP.Dst, tag: pkt.IP.Tag}
	if e := t.find(n, key); e != nil {
		return e.lid, nil
	}
	return -1, &NoRouteError{Node: n, Dst: key.dst, Tag: key.tag}
}
