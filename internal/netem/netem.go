// Package netem animates a topo.Graph on a sim.Loop: it instantiates every
// directed link as a store-and-forward transmitter with a finite queue,
// every node as a forwarding engine with a local transport demultiplexer,
// and routes packets with a route.Router.
//
// It replaces the paper's Mininet substrate. The model is the standard
// output-queued router: a packet arriving at a node is either delivered to
// a registered local handler (host) or forwarded; forwarding enqueues it at
// the chosen link, which serialises packets at the link rate and delivers
// them one propagation delay later. Queue overflow drops the arriving
// packet (DropTail), which is where TCP's congestion signal comes from.
//
// One event per packet-hop. A drop-tail FIFO's departures are a closed
// form, so a Link commits a frame's whole schedule at admission: it starts
// when its predecessor ends (now, on an idle transmitter), ends one
// transmission time later and arrives Spec.Delay after that, under a
// scheduling seq reserved then. The link's only heap entry is the arrival of
// its oldest frame; what a departure does — counters, transmit tap, freeing
// queue space — is settled lazily, as of the frame's own end, the next time
// the link is touched (admission, arrival, mutator, Link.Settle). SetRate
// re-times every frame behind the one in service, SetDelay moves the arrivals
// of frames that have not left, SetDown drops what has not started and cuts
// the frame in service.
//
// Same-instant ties. The event that used to end a serialisation was scheduled
// a transmission time ahead, so it was nearly always the youngest of its
// instant: whatever else ran then saw the frame still serialising and its
// successor still queued. So inside an event a link settles strictly before
// now — but a frame admitted to an idle transmitter leaves the queue at once,
// and an arrival whose own frame ends now (no propagation delay) settles
// through now, as does Link.Settle (RunUntil's deadline is inclusive).
//
// Taps observe transmissions, deliveries and drops; the capture package
// builds its tshark equivalent on top of them.
package netem

import (
	"fmt"
	"slices"
	"time"

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
	// DropNoRoute: the router had no entry for (dst, tag).
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
	// OnDrop fires when pkt is lost anywhere in the network.
	OnDrop(where string, pkt *packet.Packet, reason DropReason)
}

// TransmitTap is an optional extension of Tap: taps that also implement it
// observe every frame departure, the point per-link byte accounting and
// FIFO audits need. A tap without it costs a frame nothing.
type TransmitTap interface {
	// OnTransmit reports that the last bit of pkt left link's transmitter
	// at time at. Links book departures lazily: the call comes up to a
	// propagation delay after at, in time order per link but not across
	// links, and always before the frame's OnArrive.
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
// link must occur in transmit order even across runtime delay changes.
type ArrivalTap interface {
	// OnArrive fires when pkt reaches the far end of link l.
	OnArrive(l *Link, pkt *packet.Packet)
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
	Router route.Router

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

	// arena recycles packets and their transport storage across the run.
	// Packets drawn from it are returned at their terminal event: after
	// the local handler consumed a delivery, or after the drop taps ran.
	arena packet.Arena
}

// addrBase (10.0.0.0) precedes the first address AssignAddr hands out.
const addrBase packet.Addr = 10 << 24

// New animates graph g with the given router on loop l.
func New(l *sim.Loop, g *topo.Graph, r route.Router) (*Network, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := &Network{Loop: l, Graph: g, Router: r, lastAddr: addrBase}
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

// Originated returns the number of packets hosts have sent so far.
func (n *Network) Originated() uint64 { return n.nextUID }

// Propagating returns the number of packets between a transmitter and the
// far node (transmitted, arrival still pending) as of the links' last settle.
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

// Release hands the packet slabs and the links' frame queues on to later
// networks; n may not be used again.
func (n *Network) Release() {
	for _, l := range n.links {
		frameBufs.Put(l.frames.Detach())
	}
	n.arena.Release()
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
func (n *Network) tapDrop(where string, pkt *packet.Packet, reason DropReason) {
	for _, t := range n.taps {
		t.OnDrop(where, pkt, reason)
	}
	n.arena.Recycle(pkt)
}

func (n *Network) tapSend(nd *Node, pkt *packet.Packet) {
	for _, t := range n.sendTaps {
		t.OnSend(nd, pkt)
	}
}

func (n *Network) tapArrive(l *Link, pkt *packet.Packet) {
	for _, t := range n.arrivalTaps {
		t.OnArrive(l, pkt)
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
// then forwards it. Transport stacks call Send; forwarding between
// routers uses receive internally.
func (nd *Node) Send(pkt *packet.Packet) {
	nd.net.nextUID++
	pkt.UID = nd.net.nextUID
	if pkt.IP.TTL == 0 {
		pkt.IP.TTL = packet.DefaultTTL
	}
	nd.net.tapSend(nd, pkt)
	nd.receive(pkt)
}

// receive handles a packet arriving at (or originating from) this node.
func (nd *Node) receive(pkt *packet.Packet) {
	if pkt.IP.Dst == nd.addr && nd.addr != 0 {
		nd.deliver(pkt)
		return
	}
	// Transit: decrement TTL, route, enqueue.
	if pkt.IP.TTL == 0 {
		nd.net.tapDrop(nd.Name, pkt, DropTTL)
		return
	}
	pkt.IP.TTL--
	lid, err := nd.net.Router.NextLink(nd.ID, pkt)
	if err != nil {
		nd.net.tapDrop(nd.Name, pkt, DropNoRoute)
		return
	}
	nd.net.links[lid].enqueue(pkt)
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
		nd.net.tapDrop(nd.Name, pkt, DropNoHandler)
		return
	}
	nd.net.tapDeliver(nd, pkt)
	nd.handlers[i].Deliver(pkt)
	// The packet dies here: taps and the handler have run, and anything
	// they keep is copied. Recycling after Deliver returns means packets
	// the handler sends in response draw from other slots.
	nd.net.arena.Recycle(pkt)
}
