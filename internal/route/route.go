// Package route implements the forwarding plane of the simulated network:
// the TagTable, deterministic per-(destination, tag) next hops, the
// mechanism the paper uses to pin each MPTCP subflow to a preselected path
// ("packets with the same tag are always routed along the same path towards
// the destination"). A lookup indexes; unknown tags fail closed.
// NextLink resolves routes: a network walks it once per route, not per hop,
// and freezes the table, which then refuses AddPath.
package route

import (
	"fmt"
	"slices"

	"mptcpsim/internal/packet"
	"mptcpsim/internal/topo"
)

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

// dstRoutes is a node's next hops towards dst, indexed by tag: noLink
// where a tag has none.
type dstRoutes struct {
	dst  packet.Addr
	link []topo.LinkID
}

// noLink marks a missing next hop; in TagTable.feeder, a link no path
// takes. origin marks a link some path starts on, and manyFeeders one that
// paths enter its near node over two different links to take.
const (
	noLink      topo.LinkID = -1
	origin      topo.LinkID = -2
	manyFeeders topo.LinkID = -3
)

// TagTable is a per-(destination, tag) forwarding table. A node's entries
// are found by destination (two on every shipped network, one per host),
// then by tag, which indexes a slice: tags are small path numbers, with
// CrossTCP's from 100, so there is nothing to scan or hash.
type TagTable struct {
	g    *topo.Graph
	next [][]dstRoutes
	// feeder is indexed by link: the link every installed path taking it
	// arrived over, or noLink, origin or manyFeeders.
	feeder []topo.LinkID
	frozen bool // AddPath is refused (Freeze)
}

// NewTagTable returns an empty tag-routing table over graph g.
func NewTagTable(g *topo.Graph) *TagTable {
	t := &TagTable{g: g, next: make([][]dstRoutes, g.NumNodes()), feeder: make([]topo.LinkID, g.NumLinks())}
	for i := range t.feeder {
		t.feeder[i] = noLink
	}
	return t
}

// Feeder returns the one link every installed path enters l's near node
// over before taking l. It reports false when no path takes l, when a path
// starts on l, or when paths arrive over two different links to take it.
// Packets that follow installed paths from the node that sent them onto l
// therefore all cross the feeder first, in the feeder's FIFO order.
func (t *TagTable) Feeder(l topo.LinkID) (topo.LinkID, bool) {
	f := t.feeder[l]
	return f, f >= 0
}

// lookup returns node n's next hop for (dst, tag), or noLink.
func (t *TagTable) lookup(n topo.NodeID, dst packet.Addr, tag packet.Tag) topo.LinkID {
	for _, r := range t.next[n] {
		if r.dst == dst {
			if int(tag) < len(r.link) {
				return r.link[tag]
			}
			break
		}
	}
	return noLink
}

// AddPath installs forwarding entries so that packets for dst carrying tag
// follow path p. It fails if an entry would conflict with one already
// installed (two different paths for the same (dst, tag) diverging at a
// node), which is exactly the determinism the tagging scheme promises.
func (t *TagTable) AddPath(dst packet.Addr, tag packet.Tag, p topo.Path) error {
	if t.frozen {
		return fmt.Errorf("route: AddPath after a network resolved routes from the table")
	}
	if !p.Valid(t.g) {
		return fmt.Errorf("route: AddPath: invalid path")
	}
	// Validate before mutating so a conflict leaves the table unchanged.
	for i, lid := range p.Links {
		if e := t.lookup(p.Nodes[i], dst, tag); e != noLink && e != lid {
			return fmt.Errorf("route: conflicting entry at node %s for dst %s %s: link %d vs %d",
				t.g.Node(p.Nodes[i]).Name, dst, tag, e, lid)
		}
	}
	for i, lid := range p.Links {
		t.index(p.Nodes[i], dst, tag)[tag] = lid
		in := origin
		if i > 0 {
			in = p.Links[i-1]
		}
		switch t.feeder[lid] {
		case noLink:
			t.feeder[lid] = in
		case in:
		default:
			t.feeder[lid] = manyFeeders
		}
	}
	return nil
}

// Freeze makes every later AddPath fail, leaving the table unchanged: a
// network resolving routes calls it, as its packets would miss a new path.
func (t *TagTable) Freeze() { t.frozen = true }

// index returns node n's next hops towards dst, added if need be and grown
// to hold tag.
func (t *TagTable) index(n topo.NodeID, dst packet.Addr, tag packet.Tag) []topo.LinkID {
	i := slices.IndexFunc(t.next[n], func(r dstRoutes) bool { return r.dst == dst })
	if i < 0 {
		i = len(t.next[n])
		t.next[n] = append(t.next[n], dstRoutes{dst: dst})
	}
	r := &t.next[n][i]
	for len(r.link) <= int(tag) {
		r.link = append(r.link, noLink)
	}
	return r.link
}

// NextLink chooses the outgoing link for pkt at node n. Lookup is exact on
// (dst, tag); packets with an unknown tag are not silently rerouted.
func (t *TagTable) NextLink(n topo.NodeID, pkt *packet.Packet) (topo.LinkID, error) {
	if lid := t.lookup(n, pkt.IP.Dst, pkt.IP.Tag); lid != noLink {
		return lid, nil
	}
	return -1, &NoRouteError{Node: n, Dst: pkt.IP.Dst, Tag: pkt.IP.Tag}
}
