package route

// The route layer's dev-loop benchmark, shaped like the benchmark's
// route.ns_per_lookup_{1,8}tag: lookups at a node where eight tagged paths
// towards one destination leave on eight links. Run it with
//
//	go test -run '^$' -bench . ./internal/route

import (
	"fmt"
	"testing"
	"time"

	"mptcpsim/internal/packet"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// BenchmarkNextLink times TagTable.NextLink at the fan-out node with tags
// cycling over the first 1 or 8 paths.
func BenchmarkNextLink(b *testing.B) {
	g := topo.New()
	s, m0, d := g.AddNode("s"), g.AddNode("m0"), g.AddNode("d")
	sm := g.AddLink(s, m0, unit.Gbps, time.Millisecond, 0)
	var paths []topo.Path
	for i := range 8 {
		x := g.AddNode(fmt.Sprint("x", i))
		paths = append(paths, topo.Path{
			Nodes: []topo.NodeID{s, m0, x, d},
			Links: []topo.LinkID{sm, g.AddLink(m0, x, unit.Gbps, time.Millisecond, 0), g.AddLink(x, d, unit.Gbps, time.Millisecond, 0)},
		})
	}
	tt := NewTagTable(g)
	for i, p := range paths {
		if err := tt.AddPath(dstAddr, packet.Tag(i+1), p); err != nil {
			b.Fatal(err)
		}
	}
	for _, tags := range []int{1, 8} {
		b.Run(fmt.Sprint(tags, "tags"), func(b *testing.B) {
			pkts := make([]packet.Packet, tags)
			for i := range pkts {
				pkts[i].IP = packet.IPv4{Tag: packet.Tag(i + 1), Dst: dstAddr}
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, err := tt.NextLink(m0, &pkts[i%tags]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
