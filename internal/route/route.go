// Package route implements the forwarding plane of the simulated network:
// the TagTable, which pins each (destination, tag) to the paths installed
// for it, the mechanism the paper uses to pin each MPTCP subflow to a
// preselected path ("packets with the same tag are always routed along the
// same path towards the destination"). A route is the rest of an installed
// path from the node that sends; unknown tags fail closed. A network looks
// each route up once, at its first send, and freezes the table, which then
// refuses AddPath; fusing hops on the table's feeder relation freezes it
// too.
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

// installed is a path AddPath pinned packets for dst carrying tag to.
type installed struct {
	dst  packet.Addr
	tag  packet.Tag
	path topo.Path
}

// In TagTable.feeder, noLink marks a link no path takes, origin a link
// some path starts on, and manyFeeders one that paths enter its near node
// over two different links to take.
const (
	noLink      topo.LinkID = -1
	origin      topo.LinkID = -2
	manyFeeders topo.LinkID = -3
)

// TagTable is a per-(destination, tag) forwarding table: the installed
// paths, in installation order. Every shipped network installs a handful
// (two per subflow), so lookups scan them.
type TagTable struct {
	g     *topo.Graph
	paths []installed
	// feeder is indexed by link: the link every installed path taking it
	// arrived over, or noLink, origin or manyFeeders.
	feeder []topo.LinkID
	frozen bool // AddPath is refused (Freeze)
}

// NewTagTable returns an empty tag-routing table over graph g.
func NewTagTable(g *topo.Graph) *TagTable {
	t := &TagTable{g: g, feeder: make([]topo.LinkID, g.NumLinks())}
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

// Route returns the links packets for dst carrying tag take from node n:
// the rest of the first installed path for (dst, tag) that leaves n, or nil
// if none does. Routes never chain from one installed path into another.
// The slice is the table's; callers must not modify it.
func (t *TagTable) Route(n topo.NodeID, dst packet.Addr, tag packet.Tag) []topo.LinkID {
	for _, r := range t.paths {
		if r.dst != dst || r.tag != tag {
			continue
		}
		if i := slices.Index(r.path.Nodes, n); i >= 0 && i < len(r.path.Links) {
			return r.path.Links[i:]
		}
	}
	return nil
}

// AddPath pins packets for dst carrying tag to path p. It fails, leaving
// the table unchanged, if p would leave a node by another link than a path
// already installed for (dst, tag) does, which is exactly the determinism
// the tagging scheme promises: paths for one (dst, tag) that share a node
// agree from it on.
func (t *TagTable) AddPath(dst packet.Addr, tag packet.Tag, p topo.Path) error {
	if t.frozen {
		return fmt.Errorf("route: AddPath after a network resolved routes from the table")
	}
	if !p.Valid(t.g) {
		return fmt.Errorf("route: AddPath: invalid path")
	}
	for i, lid := range p.Links {
		if r := t.Route(p.Nodes[i], dst, tag); r != nil && r[0] != lid {
			return fmt.Errorf("route: conflicting entry at node %s for dst %s %s: link %d vs %d",
				t.g.Node(p.Nodes[i]).Name, dst, tag, r[0], lid)
		}
	}
	for i, lid := range p.Links {
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
	p = topo.Path{Nodes: slices.Clone(p.Nodes), Links: slices.Clone(p.Links)}
	t.paths = append(t.paths, installed{dst, tag, p})
	return nil
}

// Freeze makes every later AddPath fail, leaving the table unchanged: a
// network resolving routes calls it, as its packets would miss a new path,
// and so does one fusing hops, as a new path could give a fused link a
// second feeder.
func (t *TagTable) Freeze() { t.frozen = true }

// NextLink returns the first link of pkt's route from node n, or a
// NoRouteError: packets with an unknown tag are not silently rerouted.
func (t *TagTable) NextLink(n topo.NodeID, pkt *packet.Packet) (topo.LinkID, error) {
	if r := t.Route(n, pkt.IP.Dst, pkt.IP.Tag); r != nil {
		return r[0], nil
	}
	return -1, &NoRouteError{Node: n, Dst: pkt.IP.Dst, Tag: pkt.IP.Tag}
}
