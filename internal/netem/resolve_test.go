package netem

// Differential test for resolved routes: a packet follows the links its
// network resolved at its origin, never the table, so a tap follows every
// packet from the node that sent it and checks each link it is transmitted
// or dropped on against route.TagTable.NextLink at the node it is at, and
// each drop at a node against the node and time it reached it.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mptcpsim/internal/packet"
	"mptcpsim/internal/route"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// place is the node a packet is at and the time it got there.
type place struct {
	node topo.NodeID
	at   sim.Time
}

// routeAudit is a tap that checks the hops of every packet against the
// table, hop by hop, and counts the links and drops it checked.
type routeAudit struct {
	net   *Network
	at    map[uint64]place
	errs  []string
	links int
	drops [numDropReasons]int
}

func newRouteAudit(net *Network) *routeAudit {
	a := &routeAudit{net: net, at: map[uint64]place{}}
	net.AttachTap(a)
	return a
}

func (a *routeAudit) fail(format string, args ...any) {
	if len(a.errs) < 5 {
		a.errs = append(a.errs, fmt.Sprintf(format, args...))
	}
}

// next is the table's next link for p at the node p is at, or -1.
func (a *routeAudit) next(p *packet.Packet) (place, topo.LinkID) {
	pl := a.at[p.UID]
	lid, err := a.net.Router.NextLink(pl.node, p)
	if err != nil {
		return pl, -1
	}
	return pl, lid
}

func (a *routeAudit) OnSend(n *Node, p *packet.Packet) {
	a.at[p.UID] = place{n.ID, a.net.Loop.Now()}
}

func (a *routeAudit) OnTransmit(l *Link, p *packet.Packet, _ sim.Time) {
	a.links++
	if pl, lid := a.next(p); lid != l.Spec.ID {
		a.fail("uid %d at %s went out on %s, the table's next link is %d", p.UID, a.net.Node(pl.node).Name, l.Name(), lid)
	}
}

func (a *routeAudit) OnArrive(l *Link, p *packet.Packet, at sim.Time) {
	a.at[p.UID] = place{l.Spec.To, at}
}

func (a *routeAudit) OnDeliver(n *Node, p *packet.Packet) {
	if pl := a.at[p.UID]; pl.node != n.ID {
		a.fail("uid %d delivered at %s while at %s", p.UID, n.Name, a.net.Node(pl.node).Name)
	}
}

func (a *routeAudit) OnDrop(where string, p *packet.Packet, r DropReason, at sim.Time) {
	a.drops[r]++
	pl, lid := a.next(p)
	name := a.net.Node(pl.node).Name
	switch r {
	case DropNoRoute, DropTTL, DropNoHandler:
		if where != name || at != pl.at {
			a.fail("uid %d dropped (%v) at %s at %v, it reached %s at %v", p.UID, r, where, at, name, pl.at)
		}
		if r == DropNoRoute && lid >= 0 {
			a.fail("uid %d dropped as no-route at %s, which routes it onto link %d", p.UID, where, lid)
		}
	default:
		if lid < 0 || where != a.net.Link(lid).Name() {
			a.fail("uid %d dropped (%v) on %s, the table's next link from %s is %d", p.UID, r, where, name, lid)
		}
	}
}

// TestResolvedRoutesMatchTable runs fuse_test.go's random topologies and
// scripts, fused and per hop, under the audit.
func TestResolvedRoutesMatchTable(t *testing.T) {
	var links int
	var drops [numDropReasons]int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ft := newFuseTopo(rng)
		script := fuseScript(rng, ft)
		horizon := sim.Time(20*time.Millisecond) + sim.Time(rng.Int63n(int64(30*time.Millisecond)))
		for _, fuse := range []bool{true, false} {
			var a *routeAudit
			runFuseNet(t, ft, script, seed, horizon, fuse, func(net *Network) { a = newRouteAudit(net) })
			if len(a.errs) > 0 {
				t.Fatalf("seed %d fused=%v: %v", seed, fuse, a.errs)
			}
			links += a.links
			for r, n := range a.drops {
				drops[r] += n
			}
		}
	}
	if links < 10000 || drops[DropQueueFull] == 0 || drops[DropAQM] == 0 || drops[DropRandom] == 0 || drops[DropLinkDown] == 0 {
		t.Fatalf("audit checked %d links and drops %v, want every link drop kind", links, drops)
	}
}

// chainNet builds n0 -> n1 -> ... -> n5 with a tag-1 route for n5 along it
// and a tag-2 route that ends at n2.
func chainNet(t *testing.T) (*sim.Loop, *Network, *route.TagTable, []topo.NodeID, packet.Addr) {
	t.Helper()
	g := topo.New()
	var nodes []topo.NodeID
	var links []topo.LinkID
	for i := range 6 {
		nodes = append(nodes, g.AddNode(fmt.Sprintf("n%d", i)))
		if i > 0 {
			links = append(links, g.AddLink(nodes[i-1], nodes[i], 10*unit.Mbps, time.Duration(i)*time.Millisecond, unit.MB))
		}
	}
	loop := sim.NewLoop()
	tt := route.NewTagTable(g)
	net, err := New(loop, g, tt)
	if err != nil {
		t.Fatal(err)
	}
	dst := net.AssignAddr(nodes[5])
	if err := tt.AddPath(dst, 1, topo.Path{Nodes: nodes, Links: links}); err != nil {
		t.Fatal(err)
	}
	// Tag 2 ends at n2, short of n5.
	if err := tt.AddPath(dst, 2, topo.Path{Nodes: nodes[:3], Links: links[:2]}); err != nil {
		t.Fatal(err)
	}
	return loop, net, tt, nodes, dst
}

func TestResolvedRouteCases(t *testing.T) {
	for _, tc := range []struct {
		name   string
		from   string
		tag    packet.Tag
		ttl    uint8
		reason DropReason // -1: delivered
		where  string
	}{
		{"unknown tag", "n0", 42, 0, DropNoRoute, "n0"},
		{"path ends short of dst", "n0", 2, 0, DropNoRoute, "n2"},
		{"send from mid-path", "n3", 1, 0, -1, "n5"},
		{"ttl 1", "n0", 1, 1, DropTTL, "n1"},
		{"ttl 2", "n1", 1, 2, DropTTL, "n3"},
		{"ttl 3", "n0", 1, 3, DropTTL, "n3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop, net, _, _, dst := chainNet(t)
			a := newRouteAudit(net)
			delivered := 0
			n5, _ := net.Graph.NodeByName("n5")
			if err := net.Node(n5).Register(9001, HandlerFunc(func(*packet.Packet) { delivered++ })); err != nil {
				t.Fatal(err)
			}
			from, _ := net.Graph.NodeByName(tc.from)
			p := dataPkt(0, dst, tc.tag, 100)
			p.IP.TTL = tc.ttl
			loop.Schedule(time.Millisecond, func() { net.Node(from).Send(p) })
			if err := loop.Run(); err != nil {
				t.Fatal(err)
			}
			if len(a.errs) > 0 {
				t.Fatal(a.errs)
			}
			var want [numDropReasons]int
			if tc.reason >= 0 {
				want[tc.reason] = 1
			}
			if a.drops != want || tc.reason < 0 && delivered != 1 {
				t.Fatalf("drops %v, %d deliveries; want %v", a.drops, delivered, tc.reason)
			}
			if got := a.at[p.UID]; net.Node(got.node).Name != tc.where {
				t.Fatalf("packet ended at %s, want %s", net.Node(got.node).Name, tc.where)
			}
		})
	}
}

// A network resolves its routes at the first send; a path added after
// that would reach no packet, so the table refuses it and stays as it was.
func TestAddPathAfterSendRefused(t *testing.T) {
	loop, net, tt, nodes, dst := chainNet(t)
	net.Node(nodes[0]).Send(dataPkt(0, dst, 1, 100))
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	p := topo.Path{Nodes: nodes[2:4], Links: []topo.LinkID{2}}
	if err := tt.AddPath(dst, 3, p); err == nil {
		t.Fatal("AddPath after the first Send was accepted")
	}
	if lid, err := tt.NextLink(nodes[2], dataPkt(0, dst, 3, 100)); err == nil {
		t.Fatalf("the refused AddPath installed link %d", lid)
	}
}

// Fuse reads the feeder relation from the table, so it freezes the table:
// a path entering a fused link's near node over another link would break
// the fused link's one-feeder premise at its first packet.
func TestAddPathAfterFuseRefused(t *testing.T) {
	g := topo.New()
	s, x, a, d := g.AddNode("s"), g.AddNode("x"), g.AddNode("a"), g.AddNode("d")
	sa, sx := g.AddLink(s, a, 10*unit.Mbps, time.Millisecond, unit.MB), g.AddLink(s, x, 10*unit.Mbps, time.Millisecond, unit.MB)
	xa, ad := g.AddLink(x, a, 10*unit.Mbps, time.Millisecond, unit.MB), g.AddLink(a, d, 10*unit.Mbps, time.Millisecond, unit.MB)
	tt := route.NewTagTable(g)
	net, err := New(sim.NewLoop(), g, tt)
	if err != nil {
		t.Fatal(err)
	}
	dst := net.AssignAddr(d)
	if err := tt.AddPath(dst, 1, topo.Path{Nodes: []topo.NodeID{s, a, d}, Links: []topo.LinkID{sa, ad}}); err != nil {
		t.Fatal(err)
	}
	if n := net.Fuse(sim.End, nil); n != 1 {
		t.Fatalf("Fuse fused %d links, want a->d alone", n)
	}
	p := topo.Path{Nodes: []topo.NodeID{s, x, a, d}, Links: []topo.LinkID{sx, xa, ad}}
	if err := tt.AddPath(dst, 2, p); err == nil {
		t.Fatal("AddPath after Fuse was accepted")
	}
	if r := tt.Route(s, dst, 2); r != nil {
		t.Fatalf("the refused AddPath installed %v", r)
	}
}

// Send resets a packet's route: a delivered packet sent again, as
// resender does, takes its route from the start once more.
func TestSendResetsHop(t *testing.T) {
	loop, net, _, nodes, dst := chainNet(t)
	a := newRouteAudit(net)
	src := net.Node(nodes[0])
	delivered := 0
	if err := net.Node(nodes[5]).Register(9001, HandlerFunc(func(p *packet.Packet) {
		if delivered++; delivered < 10 {
			p.IP.TTL = 0
			src.Send(p)
		}
	})); err != nil {
		t.Fatal(err)
	}
	src.Send(dataPkt(0, dst, 1, 100))
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 10 || len(a.errs) > 0 || a.drops != [numDropReasons]int{} {
		t.Fatalf("%d deliveries, drops %v, audit %v; want 10 and none", delivered, a.drops, a.errs)
	}
}
