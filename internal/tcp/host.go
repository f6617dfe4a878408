package tcp

import (
	"fmt"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
)

// Host is the TCP stack bound to one network node. It owns the node's
// ports: client connections get ephemeral ports, listeners accept incoming
// connections, and arriving packets are demultiplexed to connections by
// their full flow (so many subflows can target one listening port).
type Host struct {
	net  *netem.Network
	node *netem.Node
	loop *sim.Loop
	rng  *sim.Rand

	// Addr is the host's network address.
	Addr packet.Addr

	// conns and listeners are scanned linearly: a host holds a handful
	// of connections and a listener or two.
	conns     []connEntry
	listeners []*Listener
	nextPort  packet.Port
}

// connEntry keys a connection by its flow as seen from this host. The
// key sits beside the pointer so the per-packet scan reads one short
// array, not every Conn.
type connEntry struct {
	remote    packet.Endpoint
	localPort packet.Port
	c         *Conn
}

// NewHost attaches a TCP stack to the node, assigning it an address. The
// rng seeds initial sequence numbers so runs stay reproducible.
func NewHost(n *netem.Network, node topo.NodeID, rng *sim.Rand) *Host {
	return &Host{
		net:      n,
		node:     n.Node(node),
		loop:     n.Loop,
		rng:      rng,
		Addr:     n.AssignAddr(node),
		nextPort: 40000,
	}
}

// Listener accepts incoming connections on a port.
type Listener struct {
	// Port is the listening port.
	Port packet.Port
	// ConfigFor returns the Config for an incoming connection; it runs
	// before the SYN is answered, so it can install Sink/CC per subflow.
	// The SYN's options are provided for MPTCP join matching.
	ConfigFor func(synOpts []packet.Option, from packet.Endpoint) Config
}

// listener returns the listener on port, or nil.
func (h *Host) listener(port packet.Port) *Listener {
	for _, l := range h.listeners {
		if l.Port == port {
			return l
		}
	}
	return nil
}

// Listen opens a listening port.
func (h *Host) Listen(port packet.Port, l *Listener) error {
	if h.listener(port) != nil {
		return fmt.Errorf("tcp: port %d already listening on %s", port, h.node.Name)
	}
	l.Port = port
	if err := h.node.Register(port, netem.HandlerFunc(h.deliver)); err != nil {
		return err
	}
	h.listeners = append(h.listeners, l)
	return nil
}

// Dial opens a client connection to raddr:rport and starts the handshake.
// The returned Conn is in the SYN-SENT state; cfg.CC (if any) engages once
// established.
func (h *Host) Dial(cfg Config, raddr packet.Addr, rport packet.Port) (*Conn, error) {
	lport, err := h.allocPort()
	if err != nil {
		return nil, err
	}
	c := newConn(h, cfg, packet.Endpoint{Addr: h.Addr, Port: lport},
		packet.Endpoint{Addr: raddr, Port: rport})
	h.conns = append(h.conns, connEntry{c.remote, lport, c})
	c.startClient()
	return c, nil
}

func (h *Host) allocPort() (packet.Port, error) {
	for i := 0; i < 65535; i++ {
		p := h.nextPort
		h.nextPort++
		if h.nextPort == 0 {
			h.nextPort = 40000
		}
		if err := h.node.Register(p, netem.HandlerFunc(h.deliver)); err == nil {
			return p, nil
		}
	}
	return 0, fmt.Errorf("tcp: no free ports on %s", h.node.Name)
}

// deliver demultiplexes an arriving TCP packet to its connection, or to a
// listener for new SYNs.
func (h *Host) deliver(pkt *packet.Packet) {
	if pkt.TCP == nil {
		return
	}
	from := packet.Endpoint{Addr: pkt.IP.Src, Port: pkt.TCP.SrcPort}
	for i := range h.conns {
		if e := &h.conns[i]; e.remote == from && e.localPort == pkt.TCP.DstPort {
			e.c.receive(pkt)
			return
		}
	}
	l := h.listener(pkt.TCP.DstPort)
	if l == nil || pkt.TCP.Flags&packet.FlagSYN == 0 || pkt.TCP.Flags&packet.FlagACK != 0 {
		return // no connection and not a fresh SYN: drop silently
	}
	cfg := Config{}
	if l.ConfigFor != nil {
		cfg = l.ConfigFor(pkt.TCP.Options, from)
	}
	// The accepted connection answers along the same tag the SYN carried,
	// so ACKs retrace the subflow's path in reverse.
	if cfg.Tag == packet.TagNone {
		cfg.Tag = pkt.IP.Tag
	}
	c := newConn(h, cfg, packet.Endpoint{Addr: h.Addr, Port: l.Port}, from)
	h.conns = append(h.conns, connEntry{from, l.Port, c})
	c.startServer(pkt)
}

// Loop returns the host's event loop, for layers built on top (MPTCP).
func (h *Host) Loop() *sim.Loop { return h.loop }
