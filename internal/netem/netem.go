// Package netem animates a topo.Graph on a sim.Loop: it instantiates every
// directed link as a store-and-forward transmitter with a finite queue,
// every node as a forwarding engine with a local transport demultiplexer,
// and routes packets with a route.TagTable.
//
// Routes are static, so the first Send from a node for a destination and
// tag copies its route, the rest of the path installed for them, into links
// ended by nil; Packet.Hop indexes them, no hop reads the table, and a
// packet is dropped where its route ends short of its destination.
//
// It replaces the paper's Mininet substrate. The model is the standard
// output-queued router: a packet arriving at a node is either delivered to
// a registered local handler (host) or forwarded; forwarding enqueues it at
// the chosen link, which serialises packets at the link rate and delivers
// them one propagation delay later. Queue overflow drops the arriving
// packet (DropTail), which is where TCP's congestion signal comes from.
//
// One event per contended hop. A drop-tail FIFO's departures are a closed
// form, so a Link commits a frame's whole schedule at admission: it starts
// when its predecessor ends (now, on an idle transmitter), ends one
// transmission time later and arrives Spec.Delay after that. Its 24-byte
// record holds the packet, that time, two flags and the wire size, so
// settling reads no packet. The link's only pending event is the arrival of
// its oldest frame that was not handed on (below); what a departure does —
// counters, transmit tap, freeing queue space — is settled lazily, as of the
// frame's own end, the next time the link is touched (admission, arrival,
// mutator, Link.Settle). SetRate re-times every frame behind the one in
// service, SetDelay moves the arrivals of frames that have not left,
// SetDown drops what has not started and cuts the frame in service.
//
// Same-instant ties. A link arms its one pending arrival ranked by its
// topo.LinkID (sim.Loop.AtRanked), so arrivals at one instant run in link
// order, before that instant's timers, whenever their frames were admitted.
// Inside an event a link settles strictly before now: what runs at the
// instant a frame ends sees it still serialising and its successor still
// queued — but a frame admitted to an idle transmitter leaves the queue at
// once, and an arrival whose own frame ends now (zero delay) settles through
// now, as does Link.Settle (RunUntil's deadline is inclusive).
//
// Fused hops. When every packet a link L carries reaches L's near node over
// one link U, the feeder, L's admissions happen in U's FIFO order at times U
// committed. Network.Fuse finds such links, and from then on U hands a frame
// on when it admits it: the far node's TTL check and the read of the
// packet's next link run then, and L admits the packet as of the frame's
// arrival time — its loss draw, drop-tail check and committed schedule —
// with no arrival event at the node between them. Chains compose, so a
// packet costs one event per node where links meet (or where it is
// delivered), not one per link. Every virtual time, queue state, drop and
// same-instant order is the per-hop model's. Links a run mutates, links with
// an AQM, and hops arriving after the run's horizon stay per-hop; the
// mutators panic on a fused link or its feeder. A fused link is settled as
// of its last admission, which can lie ahead of the clock: read mid-run, its
// counters and queue are those of that instant.
//
// Taps observe transmissions, deliveries and drops; the capture package
// builds its tshark equivalent on top of them.
package netem

import (
	"fmt"
	"slices"
	"time"

	"mptcpsim/internal/fifo"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/route"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// DropReason classifies why a packet was lost.
type DropReason int

// Drop reasons.
const (
	// DropQueueFull: the link's transmit queue had no room (DropTail).
	DropQueueFull DropReason = iota
	// DropAQM: the link's admission policy (SetAQM) chose to drop.
	DropAQM
	// DropNoRoute: the packet's route ended before its destination: no
	// path installed for (dst, tag) left its origin, or the path ended short.
	DropNoRoute
	// DropTTL: the TTL reached zero.
	DropTTL
	// DropNoHandler: the packet reached its host but no transport handler
	// claimed it.
	DropNoHandler
	// DropRandom: the link's random loss model fired (wireless).
	DropRandom
	// DropLinkDown: the link was administratively down (dynamic event) —
	// the queue was drained, a frame was cut mid-serialisation, or the
	// packet arrived at a dead transmitter.
	DropLinkDown
	numDropReasons
)

var dropNames = [numDropReasons]string{
	DropQueueFull: "queue-full",
	DropAQM:       "aqm",
	DropNoRoute:   "no-route",
	DropTTL:       "ttl",
	DropNoHandler: "no-handler",
	DropRandom:    "random-loss",
	DropLinkDown:  "link-down",
}

// String names the reason.
func (r DropReason) String() string {
	if r >= 0 && r < numDropReasons {
		return dropNames[r]
	}
	return fmt.Sprintf("drop(%d)", int(r))
}

// Tap observes packets at the engine's instrumentation points. Callbacks
// run synchronously inside the event loop; implementations must not block.
type Tap interface {
	// OnDeliver fires when pkt is handed to a local handler at its
	// destination host.
	OnDeliver(n *Node, pkt *packet.Packet)
	// OnDrop fires when pkt is lost anywhere in the network, at virtual
	// time at: the loop's clock, except for a packet a fused hop's link
	// refuses, which the feeder reports when it admits the packet, as of
	// the hop's arrival time.
	OnDrop(where string, pkt *packet.Packet, reason DropReason, at sim.Time)
}

// TransmitTap is an optional extension of Tap: taps that also implement it
// observe every frame departure, the point per-link byte accounting and
// FIFO audits need. A tap without it costs a frame nothing.
type TransmitTap interface {
	// OnTransmit reports that the last bit of pkt left link's transmitter
	// at time at. Links book departures lazily: the call comes up to a
	// propagation delay after at. With Network.Fuse it can come before at:
	// a link its feeder admits settles as of each admission's time, ahead of
	// the clock, and a link that hands a frame on reports that frame and
	// every frame ahead of it not yet reported as it admits it. Calls come
	// in FIFO order per link but not in time order across links, and always
	// before the frame's OnArrive.
	OnTransmit(l *Link, pkt *packet.Packet, at sim.Time)
}

// SendTap is an optional extension of Tap: taps that also implement it
// observe every packet origination (Node.Send), the instrumentation point
// packet-conservation audits need — every sent packet must later show up
// as exactly one delivery or drop, or still be in the network.
type SendTap interface {
	// OnSend fires when a host originates pkt, after UID stamping.
	OnSend(n *Node, pkt *packet.Packet)
}

// ArrivalTap is an optional extension of Tap: taps that also implement it
// observe every propagation arrival at a link's far node, before the node
// forwards or delivers the packet. FIFO audits use it: arrivals on one
// link must occur in transmit order, by virtual time, even across runtime
// delay changes.
type ArrivalTap interface {
	// OnArrive reports that pkt reached the far end of link l at time at.
	// The call comes at at, from the arrival event — except on a link that
	// hands the frame on (Network.Fuse), which calls when it admits the
	// frame, ahead of at and possibly ahead of arrivals of earlier frames
	// on l that go elsewhere.
	OnArrive(l *Link, pkt *packet.Packet, at sim.Time)
}

// Handler consumes packets delivered to a host's transport layer.
type Handler interface {
	Deliver(pkt *packet.Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(pkt *packet.Packet)

// Deliver implements Handler.
func (f HandlerFunc) Deliver(pkt *packet.Packet) { f(pkt) }

// DefaultQueueTime sizes queues for links created with Queue == 0: the
// buffer holds this much transmission time worth of bytes (a common router
// provisioning rule of thumb; roughly one BDP for the paper's RTTs).
const DefaultQueueTime = 10 * time.Millisecond

// MinQueue is the smallest automatic queue: a handful of full-size packets
// so even slow links can absorb a burst.
const MinQueue = 10 * 1500 * unit.Byte

// Network is the animated topology.
type Network struct {
	Loop   *sim.Loop
	Graph  *topo.Graph
	Router *route.TagTable

	nodes []*Node
	links []*Link
	// lastAddr is the address AssignAddr handed out last (addrBase before
	// the first); each node keeps its own.
	lastAddr packet.Addr
	taps     []Tap
	// transmitTaps, sendTaps and arrivalTaps hold the subset of taps
	// implementing the optional extension interfaces, resolved once at
	// AttachTap.
	transmitTaps []TransmitTap
	sendTaps     []SendTap
	arrivalTaps  []ArrivalTap
	nextUID      uint64
	// horizon bounds fused hops: a frame arriving after it waits for an
	// arrival event, as in a run that ends there it never arrives.
	horizon sim.Time

	// arena recycles packets and their transport storage across the run.
	// Packets drawn from it are returned at their terminal event: after
	// the local handler consumed a delivery, or after the drop taps ran.
	arena packet.Arena

	// hops holds each resolved route as a run of links ended by nil (no
	// next link); routes finds a run by its origin, dst and tag.
	hops   []*Link
	routes []resolved
}

// resolved is where the route of a key, origin ID (< 2^24) | dst | tag,
// starts in hops.
type resolved struct{ key, hop uint64 }

// hopBufs and routeBufs keep released networks' routes for new ones.
var hopBufs fifo.Pool[*Link]
var routeBufs fifo.Pool[resolved]

// addrBase (10.0.0.0) precedes the first address AssignAddr hands out.
const addrBase packet.Addr = 10 << 24

// New animates graph g on loop l, routing with table r.
func New(l *sim.Loop, g *topo.Graph, r *route.TagTable) (*Network, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := &Network{Loop: l, Graph: g, Router: r, lastAddr: addrBase, hops: hopBufs.Get(0), routes: routeBufs.Get(0)}
	n.nodes = make([]*Node, g.NumNodes())
	for _, nd := range g.Nodes() {
		n.nodes[nd.ID] = &Node{net: n, ID: nd.ID, Name: nd.Name}
	}
	n.links = make([]*Link, g.NumLinks())
	for _, spec := range g.Links() {
		n.links[spec.ID] = newLink(n, spec)
	}
	return n, nil
}

// AttachTap registers a tap on every instrumentation point. Taps that
// also implement TransmitTap, SendTap or ArrivalTap are additionally
// notified of frame departures, packet originations and propagation
// arrivals.
func (n *Network) AttachTap(t Tap) {
	n.taps = append(n.taps, t)
	if tt, ok := t.(TransmitTap); ok {
		n.transmitTaps = append(n.transmitTaps, tt)
	}
	if st, ok := t.(SendTap); ok {
		n.sendTaps = append(n.sendTaps, st)
	}
	if at, ok := t.(ArrivalTap); ok {
		n.arrivalTaps = append(n.arrivalTaps, at)
	}
}

// Fuse lets each link whose every packet enters its near node over one
// feeder link be admitted by that feeder, for frames arriving by horizon
// (the run's last instant): see the package documentation. The relation
// comes from the routing table, which must have every path installed: Fuse
// freezes it, so a later AddPath fails. Links in mutated, and links with an
// AQM, stay per-hop, as do their feeders' hops onto them.
// Call Fuse before the first packet is sent, and let hosts originate only
// along installed paths that start at them. It returns the number of links
// it fused.
func (n *Network) Fuse(horizon sim.Time, mutated []topo.LinkID) int {
	n.horizon = horizon
	n.Router.Freeze()
	fused := 0
	for _, l := range n.links {
		u, ok := n.Router.Feeder(l.Spec.ID)
		if !ok || l.aqm != nil || slices.Contains(mutated, l.Spec.ID) || slices.Contains(mutated, u) {
			continue
		}
		l.fused, n.links[u].feeds = true, true
		fused++
	}
	return fused
}

// Originated returns the number of packets hosts have sent so far.
func (n *Network) Originated() uint64 { return n.nextUID }

// Propagating returns the number of packets between a transmitter and the
// far node (transmitted, arrival still pending) as of the links' last settle.
// A frame handed on at admission (Fuse) counts until the frames ahead of it
// have arrived; at the horizon Fuse was given, none does.
func (n *Network) Propagating() (total int) {
	for _, l := range n.links {
		total += l.departed
	}
	return total
}

// AssignAddr gives node an automatically allocated address (10.0.0.1, .2,
// ...). Assigning twice returns the existing address.
func (n *Network) AssignAddr(node topo.NodeID) packet.Addr {
	nd := n.nodes[node]
	if nd.addr == 0 {
		n.lastAddr++
		nd.addr = n.lastAddr
	}
	return nd.addr
}

// AddrOf returns the address assigned to a node.
func (n *Network) AddrOf(node topo.NodeID) (packet.Addr, bool) {
	a := n.nodes[node].addr
	return a, a != 0
}

// Arena returns the network's packet arena. Transport stacks and traffic
// sources draw send buffers from it; the engine recycles them when the
// packet dies (delivery or drop), so senders must not touch a packet
// after Send returns.
func (n *Network) Arena() *packet.Arena { return &n.arena }

// Release hands the packet slabs, the links' frame queues and the
// resolved routes' storage on to later networks; n may not be used again.
func (n *Network) Release() {
	for _, l := range n.links {
		frameBufs.Put(l.frames.Detach())
	}
	hopBufs.Put(n.hops)
	routeBufs.Put(n.routes)
	n.arena.Release()
}

// route returns where pkt's route from nd starts in hops, copying it from
// the table on its first send; the table then refuses new paths.
func (n *Network) route(nd *Node, pkt *packet.Packet) uint32 {
	key := uint64(nd.ID)<<40 | uint64(pkt.IP.Dst)<<8 | uint64(pkt.IP.Tag)
	for _, r := range n.routes {
		if r.key == key {
			return uint32(r.hop)
		}
	}
	n.Router.Freeze()
	start := uint32(len(n.hops))
	for _, lid := range n.Router.Route(nd.ID, pkt.IP.Dst, pkt.IP.Tag) {
		n.hops = append(n.hops, n.links[lid])
	}
	n.hops = append(n.hops, nil)
	n.routes = append(n.routes, resolved{key, uint64(start)})
	return start
}

// Node returns the runtime node for an ID.
func (n *Network) Node(id topo.NodeID) *Node { return n.nodes[id] }

// Link returns the runtime link for an ID.
func (n *Network) Link(id topo.LinkID) *Link { return n.links[id] }

// Links returns all runtime links in ID order.
func (n *Network) Links() []*Link { return n.links }

func (n *Network) tapTransmit(l *Link, pkt *packet.Packet, at sim.Time) {
	for _, t := range n.transmitTaps {
		t.OnTransmit(l, pkt, at)
	}
}

func (n *Network) tapDeliver(nd *Node, pkt *packet.Packet) {
	for _, t := range n.taps {
		t.OnDeliver(nd, pkt)
	}
}

// tapDrop is the single choke point every lost packet passes through
// (queue overflow, AQM, no route, TTL, no handler, random loss, link
// down). After the taps have observed the packet it is dead: recycle it.
func (n *Network) tapDrop(where string, pkt *packet.Packet, reason DropReason, at sim.Time) {
	for _, t := range n.taps {
		t.OnDrop(where, pkt, reason, at)
	}
	n.arena.Recycle(pkt)
}

func (n *Network) tapSend(nd *Node, pkt *packet.Packet) {
	for _, t := range n.sendTaps {
		t.OnSend(nd, pkt)
	}
}

func (n *Network) tapArrive(l *Link, pkt *packet.Packet, at sim.Time) {
	for _, t := range n.arrivalTaps {
		t.OnArrive(l, pkt, at)
	}
}

// Node is the runtime state of a topology node: a forwarding engine plus,
// for hosts, a transport demultiplexer keyed by destination port.
type Node struct {
	net  *Network
	ID   topo.NodeID
	Name string
	// addr is the node's address, 0 until AssignAddr gives it one. A node
	// owns at most one, so a packet is local exactly when its destination
	// equals addr.
	addr packet.Addr

	// ports[i] is bound to handlers[i]. A host binds a handful of ports,
	// so demultiplexing scans ports linearly.
	ports    []packet.Port
	handlers []Handler
}

// Register binds a handler to a local destination port. It fails if the
// port is taken.
func (nd *Node) Register(port packet.Port, h Handler) error {
	if slices.Contains(nd.ports, port) {
		return fmt.Errorf("netem: node %s port %d already registered", nd.Name, port)
	}
	nd.ports = append(nd.ports, port)
	nd.handlers = append(nd.handlers, h)
	return nil
}

// Unregister releases a local port.
func (nd *Node) Unregister(port packet.Port) {
	if i := slices.Index(nd.ports, port); i >= 0 {
		nd.ports = slices.Delete(nd.ports, i, i+1)
		nd.handlers = slices.Delete(nd.handlers, i, i+1)
	}
}

// Send originates pkt at this node: it stamps the packet's UID and TTL,
// points its Hop at its route from here, and forwards it. Transport stacks
// call Send, also to send a delivered packet again; routers use receive.
func (nd *Node) Send(pkt *packet.Packet) {
	nd.net.nextUID++
	pkt.UID = nd.net.nextUID
	if pkt.IP.TTL == 0 {
		pkt.IP.TTL = packet.DefaultTTL
	}
	pkt.Hop = nd.net.route(nd, pkt)
	nd.net.tapSend(nd, pkt)
	nd.receive(pkt)
}

// receive handles a packet arriving at (or originating from) this node.
// The next link is the one at the packet's Hop; the table is not read.
func (nd *Node) receive(pkt *packet.Packet) {
	if pkt.IP.Dst == nd.addr && nd.addr != 0 {
		nd.deliver(pkt)
		return
	}
	// Transit: decrement TTL, take the route's next link, enqueue.
	if pkt.IP.TTL == 0 {
		nd.net.tapDrop(nd.Name, pkt, DropTTL, nd.net.Loop.Now())
		return
	}
	pkt.IP.TTL--
	l := nd.net.hops[pkt.Hop]
	if l == nil {
		nd.net.tapDrop(nd.Name, pkt, DropNoRoute, nd.net.Loop.Now())
		return
	}
	pkt.Hop++
	l.enqueue(pkt)
}

// fusedNext returns the fused link a packet arriving at nd would be
// forwarded onto, or nil: nd delivers it, drops it, or forwards it onto a
// link with other feeders. receive's checks, without their effects.
func (nd *Node) fusedNext(pkt *packet.Packet) *Link {
	if pkt.IP.Dst == nd.addr && nd.addr != 0 || pkt.IP.TTL == 0 {
		return nil
	}
	if l := nd.net.hops[pkt.Hop]; l != nil && l.fused {
		return l
	}
	return nil
}

func (nd *Node) deliver(pkt *packet.Packet) {
	var port packet.Port
	switch {
	case pkt.TCP != nil:
		port = pkt.TCP.DstPort
	case pkt.UDP != nil:
		port = pkt.UDP.DstPort
	}
	i := slices.Index(nd.ports, port)
	if i < 0 {
		nd.net.tapDrop(nd.Name, pkt, DropNoHandler, nd.net.Loop.Now())
		return
	}
	nd.net.tapDeliver(nd, pkt)
	nd.handlers[i].Deliver(pkt)
	// The packet dies here: taps and the handler have run, and anything
	// they keep is copied. Recycling after Deliver returns means packets
	// the handler sends in response draw from other slots.
	nd.net.arena.Recycle(pkt)
}
