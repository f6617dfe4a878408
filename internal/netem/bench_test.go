package netem

// Benchmarks for the dataplane's per-hop cost. Run them with
//
//	go test -run '^$' -bench . ./internal/netem

import (
	"testing"
	"time"

	"mptcpsim/internal/packet"
	"mptcpsim/internal/route"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// resender sends every packet delivered to it back into the chain at src,
// so a fixed window of packets circulates; it stops the loop after left
// deliveries.
type resender struct {
	loop *sim.Loop
	src  *Node
	left int
}

func (r *resender) Deliver(p *packet.Packet) {
	p.IP.TTL = 0 // Send restores the default
	r.src.Send(p)
	if r.left--; r.left == 0 {
		r.loop.Stop()
	}
}

// BenchmarkLinkTransit times one packet-hop — admission, the lazy booking
// of its departure (settle) and its arrival — on a chain a -> b -> c -> d of
// three 100 Mbps, 1 ms links. A window of 64 packets circulates, each
// re-sent at a as it is delivered at d, so the first link holds a standing
// queue of about 36 frames. One op is one packet-hop.
//
// fused is the chain as it stands: every hop has a single feeder, so a->b
// hands each frame on to b->c and b->c to c->d, and a packet costs one event
// (its arrival at d). perhop also routes a tag onto b->c from x and one onto
// c->d from y (neither carries traffic), so both links have a second feeder
// and every hop is an arrival event, the cost of a hop onto a contended link.
func BenchmarkLinkTransit(b *testing.B) {
	for _, tc := range []struct {
		name      string
		contended bool
	}{{"perhop", true}, {"fused", false}} {
		b.Run(tc.name, func(b *testing.B) { benchmarkLinkTransit(b, tc.contended) })
	}
}

func benchmarkLinkTransit(b *testing.B, contended bool) {
	const window, hops = 64, 3
	g := topo.New()
	nodes := []topo.NodeID{g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")}
	var links []topo.LinkID
	for i := 0; i < hops; i++ {
		links = append(links, g.AddLink(nodes[i], nodes[i+1], 100*unit.Mbps, time.Millisecond, 2*window*1500))
	}
	paths := []topo.Path{{Nodes: nodes, Links: links}}
	if contended {
		for i, name := range []string{"x", "y"} {
			n := g.AddNode(name)
			in := g.AddLink(n, nodes[i+1], 100*unit.Mbps, time.Millisecond, 2*window*1500)
			paths = append(paths, topo.Path{Nodes: append([]topo.NodeID{n}, nodes[i+1:]...),
				Links: append([]topo.LinkID{in}, links[i+1:]...)})
		}
	}
	loop := sim.NewLoop()
	tt := route.NewTagTable(g)
	net, err := New(loop, g, tt)
	if err != nil {
		b.Fatal(err)
	}
	src, dst := net.Node(nodes[0]), net.Node(nodes[hops])
	srcAddr, dstAddr := net.AssignAddr(nodes[0]), net.AssignAddr(nodes[hops])
	for i, p := range paths {
		if err := tt.AddPath(dstAddr, packet.Tag(1+i), p); err != nil {
			b.Fatal(err)
		}
	}
	want := 2
	if contended {
		want = 0
	}
	if n := net.Fuse(sim.End, nil); n != want {
		b.Fatalf("Fuse joined %d links of the chain, want %d", n, want)
	}
	r := &resender{loop: loop, src: src, left: 100 * window}
	if err := dst.Register(9001, r); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < window; i++ {
		src.Send(dataPkt(srcAddr, dstAddr, 1, 1500-packet.IPv4HeaderLen-packet.UDPHeaderLen))
	}
	// Warm-up: fill the first link's queue and grow every slice to its
	// steady-state size.
	if err := loop.Run(); err != nil {
		b.Fatal(err)
	}
	r.left = (b.N + hops - 1) / hops
	b.ReportAllocs()
	b.ResetTimer()
	if err := loop.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if q := net.Link(links[0]).QueueLen(); q < window/2 {
		b.Fatalf("first link queues %d frames, want a standing queue of at least %d", q, window/2)
	}
}
