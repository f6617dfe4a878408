package mptcpsim

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"mptcpsim/internal/dynamics"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// ScenarioFile is the one description of a topology — the on-disk JSON form
// and the only way to build a Network:
//
//	{
//	  "links": [
//	    {"a": "s",  "b": "v1", "mbps": 40,  "delay_ms": 1},
//	    {"a": "v1", "b": "v2", "mbps": 100, "delay_ms": 2, "queue_bytes": 65536},
//	    {"a": "s",  "b": "w",  "mbps": 30,  "delay_ms": 3, "loss": 0.01}
//	  ],
//	  "endpoints": {"src": "s", "dst": "d"},
//	  "paths": [
//	    {"nodes": ["s", "v1", "v2", "d"], "name": "upper"},
//	    {"nodes": ["s", "w", "d"]}
//	  ]
//	}
//
// Nodes are created implicitly by the links that mention them. Paths are
// numbered 1..n in file order (the numbers SubflowPaths/CrossTCP use).
type ScenarioFile struct {
	Links     []ScenarioLink `json:"links"`
	Endpoints struct {
		Src string `json:"src"`
		Dst string `json:"dst"`
	} `json:"endpoints"`
	Paths []ScenarioPath `json:"paths"`
	// Events optionally make the scenario dynamic: scheduled link changes
	// applied at virtual times during the run (see ScenarioEvent):
	//
	//	"events": [
	//	  {"at_ms": 2000, "type": "link_down", "a": "s", "b": "v1"},
	//	  {"at_ms": 3500, "type": "link_up",   "a": "s", "b": "v1"},
	//	  {"at_ms": 1000, "type": "set_rate",  "a": "v3", "b": "v4", "mbps": 20},
	//	  {"at_ms": 500,  "type": "loss_burst","a": "s", "b": "v1", "loss": 0.3, "duration_ms": 200}
	//	]
	Events []ScenarioEvent `json:"events,omitempty"`
}

// Magnitude bounds on scenario links: 1 Tbps and one hour of one-way
// delay. See the validation in Build for why they exist.
const (
	maxLinkMbps    = 1e6
	maxLinkDelayMs = 3.6e6
)

// ScenarioLink is one duplex link of a scenario file.
type ScenarioLink struct {
	A          string  `json:"a"`
	B          string  `json:"b"`
	Mbps       float64 `json:"mbps"`
	DelayMs    float64 `json:"delay_ms"`
	QueueBytes int     `json:"queue_bytes,omitempty"`
	Loss       float64 `json:"loss,omitempty"`
}

// ScenarioPath is one declared path of a scenario file.
type ScenarioPath struct {
	Nodes []string `json:"nodes"`
	Name  string   `json:"name,omitempty"`
}

// Event types, the spellings ScenarioEvent.Type takes. LinkDown/LinkUp/
// SetRate change the capacity structure and start a new LP epoch (the
// optimality gap is measured against the epoch in force); SetDelay/SetLoss/
// LossBurst change packet dynamics only.
const (
	// EventLinkDown takes both directions of a link out of service at a
	// scheduled time: the transmit queues are drained, frames
	// mid-serialisation are cut, and arriving packets are dropped.
	EventLinkDown = "link_down"
	// EventLinkUp restores a previously downed link.
	EventLinkUp = "link_up"
	// EventSetRate renegotiates the link capacity; the frame being
	// serialised completes at the old rate, later frames pace at the new
	// one.
	EventSetRate = "set_rate"
	// EventSetDelay changes the one-way propagation delay; in-flight
	// packets keep their committed arrival times and are never reordered.
	EventSetDelay = "set_delay"
	// EventSetLoss changes the random-loss probability.
	EventSetLoss = "set_loss"
	// EventLossBurst raises the loss probability for a bounded window and
	// then restores the pre-burst probability.
	EventLossBurst = "loss_burst"
)

// ScenarioEvent is one scheduled change to a link of a scenario — the
// building block of dynamic scenarios (path failure, WiFi→cellular
// handover, capacity renegotiation). Events address duplex links by
// node-name pair like every other link override and apply to both
// directions. Type takes the Event* spellings; only the parameter matching
// the type is read.
type ScenarioEvent struct {
	AtMs float64 `json:"at_ms"`
	Type string  `json:"type"`
	A    string  `json:"a"`
	B    string  `json:"b"`
	// Mbps is the new capacity (set_rate).
	Mbps float64 `json:"mbps,omitempty"`
	// DelayMs is the new one-way delay (set_delay).
	DelayMs float64 `json:"delay_ms,omitempty"`
	// Loss is the new (set_loss) or in-burst (loss_burst) probability.
	Loss float64 `json:"loss,omitempty"`
	// DurationMs is the burst window length (loss_burst).
	DurationMs float64 `json:"duration_ms,omitempty"`
}

// String renders the event for reports ("2s link_down s-v1").
func (se ScenarioEvent) String() string {
	d, err := se.internal()
	if err != nil {
		return fmt.Sprintf("%v %s %s-%s (invalid)", millis(se.AtMs), se.Type, se.A, se.B)
	}
	return d.String()
}

// internal converts to the dynamics representation, rounding times to the
// nanosecond and rates to the bit per second like the link fields.
func (se ScenarioEvent) internal() (dynamics.Event, error) {
	kind, err := dynamics.ParseKind(se.Type)
	if err != nil {
		return dynamics.Event{}, fmt.Errorf("mptcpsim: event at %v: %w", millis(se.AtMs), err)
	}
	return dynamics.Event{
		At:    millis(se.AtMs),
		Kind:  kind,
		A:     se.A,
		B:     se.B,
		Rate:  mbpsRate(se.Mbps),
		Delay: millis(se.DelayMs),
		Loss:  se.Loss,
		Burst: millis(se.DurationMs),
	}, nil
}

// millis converts a scenario's float milliseconds to the nearest
// nanosecond: truncating would lose one whenever the float product lands a
// hair below a whole count.
func millis(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// mbpsRate converts a scenario's float Mbps to a rate, rounding like millis.
func mbpsRate(mbps float64) unit.Rate {
	return unit.Rate(math.Round(mbps * float64(unit.Mbps)))
}

// LoadScenario parses a scenario file without building it, e.g. to embed
// it in a Grid. Unknown fields and trailing data are rejected.
func LoadScenario(r io.Reader) (*ScenarioFile, error) {
	var sf ScenarioFile
	if err := decodeStrict(r, &sf); err != nil {
		return nil, fmt.Errorf("mptcpsim: scenario: %w", err)
	}
	return &sf, nil
}

// LoadNetwork parses a scenario file into a runnable Network.
func LoadNetwork(r io.Reader) (*Network, error) {
	sf, err := LoadScenario(r)
	if err != nil {
		return nil, err
	}
	return sf.Build()
}

// Build validates the file and assembles the Network it describes — the
// only way to make one. Every check runs here, once, so a broken scenario
// fails at parse time and not at the first Run of a sweep: link names and
// magnitudes, endpoints, paths that join the endpoints over existing links
// and can carry ACKs back, and the event timeline (times, targets,
// parameters, down/up pairing, loss events inside burst windows).
func (sf *ScenarioFile) Build() (*Network, error) {
	if len(sf.Links) == 0 {
		return nil, fmt.Errorf("mptcpsim: scenario has no links")
	}
	nw := &Network{graph: topo.New(), loss: make(map[topo.LinkID]float64)}
	g := nw.graph
	pairs := make(map[[2]string]bool, len(sf.Links))
	for i, l := range sf.Links {
		if l.A == "" || l.B == "" {
			return nil, fmt.Errorf("mptcpsim: link %d missing endpoint names", i)
		}
		if l.A == l.B {
			return nil, fmt.Errorf("mptcpsim: link %d (%s-%s) is a self-loop", i, l.A, l.B)
		}
		// Links are addressed by node-name pair (paths, loss/queue
		// overrides, perturbations), so parallel links would be
		// unaddressable and overrides would land on the wrong one.
		pair := linkPair(l.A, l.B)
		if pairs[pair] {
			return nil, fmt.Errorf("mptcpsim: duplicate link %s-%s (parallel links are not expressible in scenario files)", l.A, l.B)
		}
		pairs[pair] = true
		if l.Mbps <= 0 {
			return nil, fmt.Errorf("mptcpsim: link %d (%s-%s) needs mbps > 0", i, l.A, l.B)
		}
		// Magnitude bounds, mirroring the event-parameter bounds: anything
		// near them is a typo. The lower rate bound rejects capacities that
		// round to 0 bit/s.
		if l.Mbps < 1e-6 || l.Mbps > maxLinkMbps {
			return nil, fmt.Errorf("mptcpsim: link %d (%s-%s): mbps %g outside [1e-6, %g]", i, l.A, l.B, l.Mbps, float64(maxLinkMbps))
		}
		if l.DelayMs < 0 {
			return nil, fmt.Errorf("mptcpsim: link %d (%s-%s) has negative delay", i, l.A, l.B)
		}
		if l.DelayMs > maxLinkDelayMs {
			return nil, fmt.Errorf("mptcpsim: link %d (%s-%s): delay %g ms above %g ms", i, l.A, l.B, l.DelayMs, float64(maxLinkDelayMs))
		}
		if l.Loss < 0 || l.Loss > 1 {
			return nil, fmt.Errorf("mptcpsim: link %d (%s-%s): loss %g outside [0, 1]", i, l.A, l.B, l.Loss)
		}
		// A queue of 0 (or less) keeps the automatic sizing.
		ab, ba := g.AddDuplex(g.AddNode(l.A), g.AddNode(l.B), mbpsRate(l.Mbps), millis(l.DelayMs),
			unit.ByteSize(max(l.QueueBytes, 0)))
		if l.Loss > 0 {
			nw.loss[ab], nw.loss[ba] = l.Loss, l.Loss
		}
	}
	if sf.Endpoints.Src == "" || sf.Endpoints.Dst == "" {
		return nil, fmt.Errorf("mptcpsim: scenario missing endpoints")
	}
	var ok bool
	if nw.src, ok = g.NodeByName(sf.Endpoints.Src); !ok {
		return nil, fmt.Errorf("mptcpsim: unknown endpoint %q", sf.Endpoints.Src)
	}
	if nw.dst, ok = g.NodeByName(sf.Endpoints.Dst); !ok {
		return nil, fmt.Errorf("mptcpsim: unknown endpoint %q", sf.Endpoints.Dst)
	}
	if len(sf.Paths) == 0 {
		return nil, fmt.Errorf("mptcpsim: scenario declares no paths")
	}
	for i, sp := range sf.Paths {
		p, err := nw.path(sp.Nodes)
		if err != nil {
			return nil, fmt.Errorf("mptcpsim: path %d: %w", i+1, err)
		}
		name := sp.Name
		if name == "" {
			name = fmt.Sprintf("Path %d", i+1)
		}
		nw.paths = append(nw.paths, p)
		nw.pathNames = append(nw.pathNames, name)
	}
	if len(sf.Events) > 0 {
		// Firing order is the timeline's own (a stable sort by time), so
		// the events Result echoes line up with the ones that fired.
		nw.events = slices.Clone(sf.Events)
		slices.SortStableFunc(nw.events, func(a, b ScenarioEvent) int {
			return cmp.Compare(millis(a.AtMs), millis(b.AtMs))
		})
		evs := make([]dynamics.Event, len(nw.events))
		for i, se := range nw.events {
			d, err := se.internal()
			if err != nil {
				return nil, err
			}
			evs[i] = d
		}
		tl, err := dynamics.New(g, evs)
		if err != nil {
			return nil, fmt.Errorf("mptcpsim: %w", err)
		}
		nw.tl = tl
	}
	return nw, nil
}

// path resolves a scenario path's node names: it must run from the source
// to the destination over existing links, each with a reverse direction for
// the ACKs, and visit no node twice.
func (n *Network) path(nodes []string) (topo.Path, error) {
	if len(nodes) < 2 {
		return topo.Path{}, fmt.Errorf("needs at least two nodes")
	}
	var p topo.Path
	for i, name := range nodes {
		id, ok := n.graph.NodeByName(name)
		if !ok {
			return topo.Path{}, fmt.Errorf("unknown node %q", name)
		}
		if slices.Contains(p.Nodes, id) {
			return topo.Path{}, fmt.Errorf("visits node %q twice", name)
		}
		p.Nodes = append(p.Nodes, id)
		if i > 0 {
			lid, ok := n.graph.FindLink(p.Nodes[i-1], id)
			if !ok {
				return topo.Path{}, fmt.Errorf("no link %s-%s", nodes[i-1], name)
			}
			p.Links = append(p.Links, lid)
		}
	}
	if p.Nodes[0] != n.src || p.Nodes[len(p.Nodes)-1] != n.dst {
		return topo.Path{}, fmt.Errorf("does not connect the endpoints")
	}
	if _, err := topo.ReversePath(n.graph, p); err != nil {
		return topo.Path{}, fmt.Errorf("not reversible (ACKs need return links): %w", err)
	}
	return p, nil
}

// clone returns a deep copy of the scenario, so perturbations and event
// sets can modify their copy without touching the original. Every field of
// ScenarioFile must be covered here — both sweep-axis appliers rely on it.
func (sf *ScenarioFile) clone() *ScenarioFile {
	out := &ScenarioFile{
		Links:     append([]ScenarioLink(nil), sf.Links...),
		Endpoints: sf.Endpoints,
		Events:    append([]ScenarioEvent(nil), sf.Events...),
	}
	for _, path := range sf.Paths {
		out.Paths = append(out.Paths, ScenarioPath{
			Nodes: append([]string(nil), path.Nodes...),
			Name:  path.Name,
		})
	}
	return out
}

// linkPair normalizes an unordered node-name pair for duplicate checks.
func linkPair(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// PaperScenario returns the network of the paper's Fig. 1a with its three
// overlapping paths (Path 2 is the shortest-RTT default):
//
//	x1+x2 <= 40 (s-v1),  x2+x3 <= 60 (v3-v4),  x1+x3 <= 80 (v2-v3)
//
// LP optimum: 90 Mbps at {x1=30, x2=10, x3=50}.
func PaperScenario() *ScenarioFile {
	sf := &ScenarioFile{
		Links: []ScenarioLink{
			{A: "s", B: "v1", Mbps: 40, DelayMs: 1},
			{A: "v1", B: "v2", Mbps: 100, DelayMs: 2},
			{A: "v2", B: "v3", Mbps: 80, DelayMs: 2},
			{A: "v3", B: "d", Mbps: 100, DelayMs: 4},
			{A: "v1", B: "v3", Mbps: 100, DelayMs: 1},
			{A: "v3", B: "v4", Mbps: 60, DelayMs: 1},
			{A: "v4", B: "d", Mbps: 100, DelayMs: 1},
			{A: "s", B: "v2", Mbps: 100, DelayMs: 3},
		},
		Paths: []ScenarioPath{
			{Nodes: []string{"s", "v1", "v2", "v3", "d"}},
			{Nodes: []string{"s", "v1", "v3", "v4", "d"}},
			{Nodes: []string{"s", "v2", "v3", "v4", "d"}},
		},
	}
	sf.Endpoints.Src = "s"
	sf.Endpoints.Dst = "d"
	return sf
}
