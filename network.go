package mptcpsim

import (
	"fmt"
	"math"
	"time"

	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// Network is the public topology builder: named nodes, duplex links with
// Mbps capacities, and numbered source→destination paths that MPTCP
// subflows are pinned to by tag. Only its builder methods modify it; Run
// never does, so one built Network may serve concurrent runs.
type Network struct {
	graph *topo.Graph
	paths []topo.Path
	src   topo.NodeID
	dst   topo.NodeID
	ends  bool

	// Per-directed-link overrides applied at run time.
	loss map[topo.LinkID]float64

	// events are the scheduled dynamic events, in insertion order (the
	// timeline stable-sorts them by firing time at run time).
	events []Event

	pathNames []string
}

// NewNetwork returns an empty topology.
func NewNetwork() *Network {
	return &Network{graph: topo.New(), loss: make(map[topo.LinkID]float64)}
}

// AddLink adds a duplex link between the named nodes (created on first
// use) with the given capacity in Mbps and one-way propagation delay.
func (n *Network) AddLink(a, b string, mbps float64, delay time.Duration) *Network {
	na, nb := n.graph.AddNode(a), n.graph.AddNode(b)
	// Round, don't truncate: truncation makes scenario emit->build cycles
	// drift non-representable capacities down by 1 bit/s per round trip.
	n.graph.AddDuplex(na, nb, unit.Rate(math.Round(mbps*float64(unit.Mbps))), delay, 0)
	return n
}

// SetQueue overrides the buffer size (bytes) of both directions of the
// a-b link (0 restores the automatic sizing).
func (n *Network) SetQueue(a, b string, bytes int) error {
	ids, err := n.duplexIDs(a, b)
	if err != nil {
		return err
	}
	for _, id := range ids {
		l := n.graph.Links()[id]
		l.Queue = unit.ByteSize(bytes)
		n.graph.Links()[id] = l
	}
	return nil
}

// SetLoss sets an independent random packet-loss probability on both
// directions of the a-b link (a lossy wireless hop).
func (n *Network) SetLoss(a, b string, prob float64) error {
	if prob < 0 || prob > 1 {
		return fmt.Errorf("mptcpsim: loss probability %v out of range", prob)
	}
	ids, err := n.duplexIDs(a, b)
	if err != nil {
		return err
	}
	for _, id := range ids {
		n.loss[id] = prob
	}
	return nil
}

func (n *Network) duplexIDs(a, b string) ([]topo.LinkID, error) {
	na, ok := n.graph.NodeByName(a)
	if !ok {
		return nil, fmt.Errorf("mptcpsim: unknown node %q", a)
	}
	nb, ok := n.graph.NodeByName(b)
	if !ok {
		return nil, fmt.Errorf("mptcpsim: unknown node %q", b)
	}
	ab, ok := n.graph.FindLink(na, nb)
	if !ok {
		return nil, fmt.Errorf("mptcpsim: no link %s-%s", a, b)
	}
	ba, ok := n.graph.FindLink(nb, na)
	if !ok {
		return nil, fmt.Errorf("mptcpsim: no reverse link %s-%s", b, a)
	}
	return []topo.LinkID{ab, ba}, nil
}

// Endpoints declares the traffic source and destination hosts.
func (n *Network) Endpoints(src, dst string) error {
	s, ok := n.graph.NodeByName(src)
	if !ok {
		return fmt.Errorf("mptcpsim: unknown node %q", src)
	}
	d, ok := n.graph.NodeByName(dst)
	if !ok {
		return fmt.Errorf("mptcpsim: unknown node %q", dst)
	}
	n.src, n.dst, n.ends = s, d, true
	return nil
}

// AddPath declares a forwarding path through the named nodes (which must
// be joined by existing links, starting at the source and ending at the
// destination). It returns the 1-based path number used as the packet tag.
func (n *Network) AddPath(nodes ...string) (int, error) {
	if len(nodes) < 2 {
		return 0, fmt.Errorf("mptcpsim: path needs at least two nodes")
	}
	p := topo.Path{}
	for i, name := range nodes {
		id, ok := n.graph.NodeByName(name)
		if !ok {
			return 0, fmt.Errorf("mptcpsim: unknown node %q", name)
		}
		p.Nodes = append(p.Nodes, id)
		if i > 0 {
			lid, ok := n.graph.FindLink(p.Nodes[i-1], id)
			if !ok {
				return 0, fmt.Errorf("mptcpsim: no link %s-%s", nodes[i-1], name)
			}
			p.Links = append(p.Links, lid)
		}
	}
	if _, err := topo.ReversePath(n.graph, p); err != nil {
		return 0, fmt.Errorf("mptcpsim: path not reversible (ACKs need return links): %w", err)
	}
	n.paths = append(n.paths, p)
	n.pathNames = append(n.pathNames, fmt.Sprintf("Path %d", len(n.paths)))
	return len(n.paths), nil
}

// NamePath overrides the display name of a path ("wifi", "lte").
func (n *Network) NamePath(path int, name string) error {
	if path < 1 || path > len(n.paths) {
		return fmt.Errorf("mptcpsim: no path %d", path)
	}
	n.pathNames[path-1] = name
	return nil
}

// NumPaths returns the number of declared paths.
func (n *Network) NumPaths() int { return len(n.paths) }

// PathDescription renders a path as "s -> v1 -> ... -> d".
func (n *Network) PathDescription(path int) string {
	if path < 1 || path > len(n.paths) {
		return ""
	}
	return n.paths[path-1].Format(n.graph)
}

// validateMagnitudes enforces the link magnitude bounds at the common
// layer, so a network built through the API obeys the same contract as
// one parsed from a scenario file — in particular, every network that
// runs can also be exported and re-built from its own Scenario().
func (n *Network) validateMagnitudes() error {
	for _, l := range n.graph.Links() {
		a, b := n.graph.Node(l.From).Name, n.graph.Node(l.To).Name
		if l.Rate < 1 || l.Rate.Mbit() > maxLinkMbps {
			return fmt.Errorf("mptcpsim: link %s-%s: rate %v outside [1bps, %gMbps]",
				a, b, l.Rate, float64(maxLinkMbps))
		}
		if float64(l.Delay)/float64(time.Millisecond) > maxLinkDelayMs {
			return fmt.Errorf("mptcpsim: link %s-%s: delay %v above %gms",
				a, b, l.Delay, float64(maxLinkDelayMs))
		}
	}
	return nil
}

// validate checks the network is runnable.
func (n *Network) validate() error {
	if err := n.graph.Validate(); err != nil {
		return err
	}
	if err := n.validateMagnitudes(); err != nil {
		return err
	}
	if !n.ends {
		return fmt.Errorf("mptcpsim: call Endpoints before running")
	}
	if len(n.paths) == 0 {
		return fmt.Errorf("mptcpsim: no paths declared")
	}
	for i, p := range n.paths {
		if p.Nodes[0] != n.src || p.Nodes[len(p.Nodes)-1] != n.dst {
			return fmt.Errorf("mptcpsim: path %d does not connect the endpoints", i+1)
		}
	}
	return nil
}

// PaperNetwork builds the network of the paper's Fig. 1a with its three
// overlapping paths (Path 2 is the shortest-RTT default):
//
//	x1+x2 <= 40 (s-v1),  x2+x3 <= 60 (v3-v4),  x1+x3 <= 80 (v2-v3)
//
// LP optimum: 90 Mbps at {x1=30, x2=10, x3=50}.
func PaperNetwork() *Network {
	pn := topo.Paper()
	n := &Network{graph: pn.Graph, loss: make(map[topo.LinkID]float64)}
	n.src, n.dst, n.ends = pn.S, pn.D, true
	n.paths = pn.Paths
	n.pathNames = []string{"Path 1", "Path 2", "Path 3"}
	return n
}
