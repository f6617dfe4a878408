package route

import (
	"errors"
	"slices"
	"testing"

	"mptcpsim/internal/packet"
	"mptcpsim/internal/topo"
)

var (
	srcAddr = packet.MakeAddr(10, 0, 0, 1)
	dstAddr = packet.MakeAddr(10, 0, 0, 2)
)

func tcpPkt(dst packet.Addr, tag packet.Tag, sp, dp packet.Port) *packet.Packet {
	return &packet.Packet{
		IP:  packet.IPv4{Tag: tag, TTL: packet.DefaultTTL, Proto: packet.ProtoTCP, Src: srcAddr, Dst: dst},
		TCP: &packet.TCP{SrcPort: sp, DstPort: dp, Flags: packet.FlagACK},
	}
}

// pathTags are the tags the tests pin the paper network's three paths to:
// two subflow-style tags and a CrossTCP-style one far above them.
var pathTags = []packet.Tag{1, 2, 100}

// TestTagTableFollowsPaths installs the paper's three paths towards dst
// and their reverses towards src, each pair under one tag, in one table: a
// route is the rest of its path from every node on it, and nil from its
// last node, and NextLink is the route's first link.
func TestTagTableFollowsPaths(t *testing.T) {
	pn := topo.Paper()
	tt := NewTagTable(pn.Graph)
	type pinned struct {
		dst packet.Addr
		tag packet.Tag
		p   topo.Path
	}
	var all []pinned
	for i, p := range pn.Paths {
		rev, err := topo.ReversePath(pn.Graph, p)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, pinned{dstAddr, pathTags[i], p}, pinned{srcAddr, pathTags[i], rev})
	}
	for _, r := range all {
		if err := tt.AddPath(r.dst, r.tag, r.p); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range all {
		for j, n := range r.p.Nodes {
			got := tt.Route(n, r.dst, r.tag)
			if !slices.Equal(got, r.p.Links[j:]) || (got == nil) != (j == len(r.p.Links)) {
				t.Errorf("dst %s %s from %s: route %v, want %v", r.dst, r.tag, pn.Graph.Node(n).Name, got, r.p.Links[j:])
			}
			if lid, err := tt.NextLink(n, tcpPkt(r.dst, r.tag, 5001, 80)); j < len(r.p.Links) && (err != nil || lid != r.p.Links[j]) {
				t.Errorf("dst %s %s from %s: next link %d (%v), want %d", r.dst, r.tag, pn.Graph.Node(n).Name, lid, err, r.p.Links[j])
			}
		}
	}
}

// TestTagTableUnknownTagFailsClosed: every lookup the table cannot answer
// is a NoRouteError naming the node, destination and tag, never a link.
func TestTagTableUnknownTagFailsClosed(t *testing.T) {
	pn := topo.Paper()
	tt := NewTagTable(pn.Graph)
	for i, p := range pn.Paths {
		if err := tt.AddPath(dstAddr, pathTags[i], p); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		at   topo.NodeID
		dst  packet.Addr
		tag  packet.Tag
	}{
		{"unknown tag", pn.S, dstAddr, 9},
		{"TagNone", pn.S, dstAddr, packet.TagNone},
		{"tag 255", pn.S, dstAddr, 255},
		{"one above the largest tag", pn.S, dstAddr, 101},
		{"between two installed tags", pn.S, dstAddr, 99},
		{"known tag, unknown destination", pn.S, srcAddr, 1},
		{"node with no entries", pn.D, dstAddr, 1},
	}
	for _, c := range cases {
		lid, err := tt.NextLink(c.at, tcpPkt(c.dst, c.tag, 5001, 80))
		var nr *NoRouteError
		if !errors.As(err, &nr) || lid != -1 {
			t.Fatalf("%s: got link %d, error %v; want -1 and a NoRouteError", c.name, lid, err)
		}
		if nr.Node != c.at || nr.Dst != c.dst || nr.Tag != c.tag {
			t.Fatalf("%s: error fields wrong: %v", c.name, nr)
		}
	}
}

func TestTagTableConflictRejected(t *testing.T) {
	pn := topo.Paper()
	tt := NewTagTable(pn.Graph)
	if err := tt.AddPath(dstAddr, 1, pn.Paths[0]); err != nil {
		t.Fatal(err)
	}
	// Path 2 diverges from Path 1 at v1 — same tag must be rejected.
	if err := tt.AddPath(dstAddr, 1, pn.Paths[1]); err == nil {
		t.Fatal("conflicting AddPath accepted")
	}
	// And the table must still route tag 1 along Path 1.
	pkt := tcpPkt(dstAddr, 1, 5001, 80)
	v1, _ := pn.Graph.NodeByName("v1")
	lid, err := tt.NextLink(v1, pkt)
	if err != nil || lid != pn.Paths[0].Links[1] {
		t.Fatalf("table mutated by failed AddPath: %v %v", lid, err)
	}

	// A conflict at the last hop but one leaves the earlier hops, which
	// had no entry, without one.
	tail := topo.Path{Nodes: pn.Paths[0].Nodes[3:], Links: pn.Paths[0].Links[3:]} // v3 -> d
	if err := tt.AddPath(dstAddr, 2, tail); err != nil {
		t.Fatal(err)
	}
	if err := tt.AddPath(dstAddr, 2, pn.Paths[1]); err == nil { // s v1 v3 v4 d
		t.Fatal("conflicting AddPath accepted")
	}
	for _, n := range pn.Paths[1].Nodes[:2] {
		if lid, err := tt.NextLink(n, tcpPkt(dstAddr, 2, 5001, 80)); err == nil {
			t.Fatalf("failed AddPath installed link %d at node %d", lid, n)
		}
	}
}

func TestTagTableSameTagDifferentDst(t *testing.T) {
	pn := topo.Paper()
	tt := NewTagTable(pn.Graph)
	other := packet.MakeAddr(10, 0, 0, 3)
	if err := tt.AddPath(dstAddr, 1, pn.Paths[0]); err != nil {
		t.Fatal(err)
	}
	// Same tag towards a different destination may use a different path.
	if err := tt.AddPath(other, 1, pn.Paths[1]); err != nil {
		t.Fatal(err)
	}
	lid, err := tt.NextLink(pn.S, tcpPkt(other, 1, 5001, 80))
	if err != nil || lid != pn.Paths[1].Links[0] {
		t.Fatalf("wrong link for second dst: %v %v", lid, err)
	}
}

func TestReversePathRouting(t *testing.T) {
	pn := topo.Paper()
	tt := NewTagTable(pn.Graph)
	var revs []topo.Path
	for i, p := range pn.Paths {
		rev, err := topo.ReversePath(pn.Graph, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := tt.AddPath(srcAddr, packet.Tag(i+1), rev); err != nil {
			t.Fatal(err)
		}
		revs = append(revs, rev)
	}
	// ACKs (d -> s) with tag 2 must traverse Path 2 in reverse.
	pkt := tcpPkt(srcAddr, 2, 80, 5001)
	at := pn.D
	var walked []topo.LinkID
	for at != pn.S {
		lid, err := tt.NextLink(at, pkt)
		if err != nil {
			t.Fatal(err)
		}
		walked = append(walked, lid)
		at = pn.Graph.Link(lid).To
		if len(walked) > len(pn.Paths[1].Links) {
			t.Fatalf("reverse walk exceeds %d hops", len(pn.Paths[1].Links))
		}
	}
	if !slices.Equal(walked, revs[1].Links) {
		t.Fatalf("reverse walk = %v, want %v", walked, revs[1].Links)
	}
}

func TestAddPathRejectsInvalid(t *testing.T) {
	pn := topo.Paper()
	tt := NewTagTable(pn.Graph)
	// A path whose links do not match its nodes is invalid.
	bad := topo.Path{Nodes: []topo.NodeID{pn.S, pn.D}, Links: []topo.LinkID{999}}
	if err := tt.AddPath(dstAddr, 1, bad); err == nil {
		t.Fatal("invalid path accepted")
	}
}
