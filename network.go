package mptcpsim

import (
	"mptcpsim/internal/dynamics"
	"mptcpsim/internal/topo"
)

// Network is a built, validated topology: named nodes, duplex links with
// Mbps capacities, numbered source→destination paths that MPTCP subflows
// are pinned to by tag, per-link loss and the event timeline.
// ScenarioFile.Build is its only constructor, and nothing modifies a built
// Network, so one may serve any number of runs, concurrent ones included.
type Network struct {
	graph     *topo.Graph
	paths     []topo.Path
	pathNames []string
	src, dst  topo.NodeID
	// loss holds the random packet-loss probability of every lossy
	// directed link.
	loss map[topo.LinkID]float64
	// tl is the validated event timeline (nil for a static network), and
	// events are its events in the scenario's form, in firing order.
	tl     *dynamics.Timeline
	events []ScenarioEvent
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

// PaperNetwork builds PaperScenario, the network of the paper's Fig. 1a.
func PaperNetwork() *Network {
	nw, err := PaperScenario().Build()
	if err != nil {
		panic(err) // PaperScenario is a constant the tests build
	}
	return nw
}
