package tcp

// Scripted cases for the host's demultiplexing tables: the test hands the
// server host hand-built segments and checks which connection, if any,
// consumed them.

import (
	"math/rand"
	"testing"
	"time"

	"mptcpsim/internal/cc"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/unit"
)

// dropLog records the reason of every drop in the network.
type dropLog struct{ reasons []netem.DropReason }

func (*dropLog) OnDeliver(*netem.Node, *packet.Packet) {}
func (d *dropLog) OnDrop(_ string, _ *packet.Packet, r netem.DropReason) {
	d.reasons = append(d.reasons, r)
}

// demuxRig is eight idle, established client connections on one host pair:
// five to a listener on port 80, three to a second listener on port 81.
type demuxRig struct {
	t       *testing.T
	tn      *testNet
	clients []*Conn
	// sinks[i] counts what the server-side peer of clients[i] delivered.
	sinks []*CountSink
	// sent[i] is how many scripted segments clients[i]'s flow has carried.
	sent []int
}

func newDemuxRig(t *testing.T) *demuxRig {
	t.Helper()
	r := &demuxRig{t: t, tn: newTestNet(t, 100*unit.Mbps, time.Millisecond, 0)}
	bySource := map[packet.Endpoint]*CountSink{}
	for _, port := range []packet.Port{80, 81} {
		err := r.tn.server.Listen(port, &Listener{
			ConfigFor: func(_ []packet.Option, from packet.Endpoint) Config {
				bySource[from] = &CountSink{}
				return Config{Sink: bySource[from], Tag: 1}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		port := packet.Port(80)
		if i >= 5 {
			port = 81
		}
		c, err := r.tn.client.Dial(Config{Tag: 1}, r.tn.server.Addr, port)
		if err != nil {
			t.Fatal(err)
		}
		r.clients = append(r.clients, c)
	}
	if err := r.tn.loop.RunUntil(r.tn.loop.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for i, c := range r.clients {
		if c.State() != StateEstablished || bySource[c.local] == nil {
			t.Fatalf("connection %d not established", i)
		}
		r.sinks = append(r.sinks, bySource[c.local])
	}
	r.sent = make([]int, len(r.clients))
	if got := len(r.tn.server.conns); got != 8 {
		t.Fatalf("server holds %d connections, want 8", got)
	}
	return r
}

// size is the payload of every scripted segment of flow i: distinct per
// flow, so a sink's byte count names the flow that fed it.
func (r *demuxRig) size(i int) int { return 100 + i }

// feed hands the server host the next in-order data segment of flow i.
func (r *demuxRig) feed(i int) {
	c := r.clients[i]
	r.tn.server.deliver(&packet.Packet{
		IP: packet.IPv4{Proto: packet.ProtoTCP, Tag: 1, Src: c.local.Addr, Dst: c.remote.Addr},
		TCP: &packet.TCP{SrcPort: c.local.Port, DstPort: c.remote.Port, Flags: packet.FlagACK,
			Seq: c.iss + 1 + uint32(r.sent[i]*r.size(i)), Ack: c.rcvNxt, Window: 1 << 15},
		PayloadLen: r.size(i),
	})
	r.sent[i]++
}

// expect asserts every sink holds exactly want[i] segments of its own flow.
func (r *demuxRig) expect(step string, want []int) {
	r.t.Helper()
	for i, s := range r.sinks {
		if s.Bytes != uint64(want[i]*r.size(i)) {
			r.t.Fatalf("%s: flow %d's connection delivered %d bytes, want %d segments of %d",
				step, i, s.Bytes, want[i], r.size(i))
		}
	}
}

func TestHostDemuxReachesOwnConnection(t *testing.T) {
	r := newDemuxRig(t)
	rounds := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{7, 6, 5, 4, 3, 2, 1, 0},
		rand.New(rand.NewSource(1)).Perm(8),
		rand.New(rand.NewSource(2)).Perm(8),
		{3, 3, 3, 0, 0, 7, 7, 7}, // bursts: the same flow back to back
	}
	want := make([]int, 8)
	for _, order := range rounds {
		for _, i := range order {
			r.feed(i)
			want[i]++
		}
	}
	r.expect("interleaved", want)
	for i, c := range r.clients {
		if e := r.tn.server.conns[i]; e.remote != c.local || e.localPort != c.remote.Port {
			t.Fatalf("server entry %d keyed %v:%d, want flow %v -> port %d",
				i, e.remote, e.localPort, c.local, c.remote.Port)
		}
	}
}

func TestHostDemuxDropsUnknownFlows(t *testing.T) {
	r := newDemuxRig(t)
	drops := &dropLog{}
	r.tn.net.AttachTap(drops)
	srv, c := r.tn.server, r.clients[0]
	seg := func(src, dst packet.Port, flags packet.TCPFlags) *packet.Packet {
		return &packet.Packet{
			IP:  packet.IPv4{Proto: packet.ProtoTCP, Tag: 1, Src: c.local.Addr, Dst: c.remote.Addr},
			TCP: &packet.TCP{SrcPort: src, DstPort: dst, Flags: flags, Seq: 1, Window: 1 << 15},
		}
	}
	// Bound at the node, nothing for the flow at the host: dropped silently.
	srv.deliver(seg(39999, 80, packet.FlagACK))                // non-SYN for an unknown flow
	srv.deliver(seg(39999, 80, packet.FlagSYN|packet.FlagACK)) // not a fresh SYN
	srv.deliver(seg(39999, 82, packet.FlagSYN))                // no listener on 82
	if got := len(srv.conns); got != 8 {
		t.Fatalf("stray segments left %d connections, want 8", got)
	}
	r.expect("stray segments", make([]int, 8))
	// A port nobody bound never reaches the host: the node counts it.
	r.tn.client.node.Send(seg(39999, 82, packet.FlagSYN))
	if err := r.tn.loop.RunUntil(r.tn.loop.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(drops.reasons) != 1 || drops.reasons[0] != netem.DropNoHandler {
		t.Fatalf("drops = %v, want [no-handler]", drops.reasons)
	}
	// A fresh SYN to the second listener opens a connection on its port.
	srv.deliver(seg(39999, 81, packet.FlagSYN))
	if got := len(srv.conns); got != 9 || srv.conns[8].localPort != 81 || srv.conns[8].c.local.Port != 81 {
		t.Fatalf("SYN to port 81 left %d connections", got)
	}
}

func TestHostDemuxAfterClose(t *testing.T) {
	for closed := 0; closed < 8; closed++ {
		r := newDemuxRig(t)
		r.tn.server.conns[closed].c.Close()
		if got := len(r.tn.server.conns); got != 7 {
			t.Fatalf("closing connection %d left %d, want 7", closed, got)
		}
		want := make([]int, 8)
		for i := range r.clients {
			r.feed(i)
			if i != closed {
				want[i]++
			}
		}
		r.expect("after close", want)
	}
}

// Close releases a dialled connection's ephemeral port at the node: a late
// segment for it is a no-handler drop, and the port can be dialled again.
// An accepted connection shares its listener's port, which stays bound.
func TestCloseReleasesEphemeralPort(t *testing.T) {
	tn := newTestNet(t, 100*unit.Mbps, time.Millisecond, 0)
	drops := &dropLog{}
	tn.net.AttachTap(drops)
	c1, _ := tn.startBulk(t, &limitedSource{}, nil)
	run := func() {
		t.Helper()
		if err := tn.loop.RunUntil(tn.loop.Now().Add(50 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if c1.State() != StateEstablished {
		t.Fatal("first connection not established")
	}
	port := c1.local.Port
	c1.Close()
	tn.server.conns[0].c.Close()
	if len(tn.client.conns) != 0 || len(tn.server.conns) != 0 {
		t.Fatalf("connections left after Close: client %d, server %d", len(tn.client.conns), len(tn.server.conns))
	}
	tn.server.node.Send(&packet.Packet{
		IP:  packet.IPv4{Proto: packet.ProtoTCP, Tag: 1, Src: tn.server.Addr, Dst: tn.client.Addr},
		TCP: &packet.TCP{SrcPort: 80, DstPort: port, Flags: packet.FlagACK, Seq: 1, Window: 1 << 15},
	})
	run()
	if len(drops.reasons) != 1 || drops.reasons[0] != netem.DropNoHandler {
		t.Fatalf("drops = %v, want [no-handler] for the closed connection's port", drops.reasons)
	}
	tn.client.nextPort = port
	const total = 5 * DefaultMSS
	algo, _ := cc.New("reno")
	c2, err := tn.client.Dial(Config{Tag: 1, CC: algo, Source: &limitedSource{remaining: total}}, tn.server.Addr, 80)
	if err != nil {
		t.Fatal(err)
	}
	if c2.local.Port != port {
		t.Fatalf("redial got port %d, want the released %d", c2.local.Port, port)
	}
	run()
	if c2.State() != StateEstablished || len(tn.server.conns) != 1 {
		t.Fatalf("redial on the released port: state %v, server connections %d", c2.State(), len(tn.server.conns))
	}
	if got := tn.server.conns[0].c.Stats.DeliveredData; got != total {
		t.Fatalf("second connection delivered %d bytes, want %d", got, total)
	}
}
