package telemetry

import (
	"encoding/json"
	"io"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
)

// EventKind classifies a flight-recorder event.
type EventKind uint8

// Flight-recorder event kinds, in packet-lifecycle order.
const (
	// KindSend: a host originated the packet.
	KindSend EventKind = iota
	// KindTransmit: the last bit left a link's transmitter.
	KindTransmit
	// KindArrive: the packet reached the far end of a link.
	KindArrive
	// KindDeliver: the packet was handed to a local transport handler.
	KindDeliver
	// KindDrop: the packet was lost.
	KindDrop
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindTransmit:
		return "transmit"
	case KindArrive:
		return "arrive"
	case KindDeliver:
		return "deliver"
	case KindDrop:
		return "drop"
	default:
		return "event(?)"
	}
}

// Event is one recorded engine event. Links are stored as pointers and
// resolved to names only at dump time, so recording stays allocation-free.
type Event struct {
	At   sim.Time
	Kind EventKind
	// link is set for transmit/arrive events; where for the rest (node
	// name, or the drop location string the engine reported).
	link  *netem.Link
	where string

	UID  uint64
	Tag  packet.Tag
	Size int

	Reason netem.DropReason
}

// Where returns the event's location: the link name for transmit/arrive,
// the node or drop-location name otherwise.
func (e Event) Where() string {
	if e.link != nil {
		return e.link.Name()
	}
	return e.where
}

// DefaultRingSize is the flight-recorder capacity used by Options.Telemetry.
const DefaultRingSize = 512

// Recorder is a fixed-size ring buffer of the last N engine events — the
// simulator's flight recorder. It attaches to a netem.Network as a tap,
// observes sends, transmissions, arrivals, deliveries and drops, and keeps
// only the tail, so a failing run can be dumped with the events that led
// up to the failure. The ring is preallocated: recording is a store and
// two integer updates, with zero heap allocations.
type Recorder struct {
	loop *sim.Loop
	ring []Event
	// next is the ring slot the next event lands in; total counts every
	// event observed.
	next  int
	total uint64
}

// NewRecorder returns a recorder retaining the last n events (n <= 0
// selects DefaultRingSize).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &Recorder{ring: make([]Event, n)}
}

// Attach registers the recorder on every tap point of net.
func (r *Recorder) Attach(net *netem.Network) {
	r.loop = net.Loop
	net.AttachTap(r)
}

func (r *Recorder) record(e Event) {
	r.ring[r.next] = e
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	r.total++
}

// OnSend implements netem.SendTap.
func (r *Recorder) OnSend(n *netem.Node, pkt *packet.Packet) {
	r.record(Event{At: r.loop.Now(), Kind: KindSend, where: n.Name,
		UID: pkt.UID, Tag: pkt.IP.Tag, Size: int(pkt.Size())})
}

// OnTransmit implements netem.TransmitTap; at is when the frame left, not
// "now".
func (r *Recorder) OnTransmit(l *netem.Link, pkt *packet.Packet, at sim.Time) {
	r.record(Event{At: at, Kind: KindTransmit, link: l,
		UID: pkt.UID, Tag: pkt.IP.Tag, Size: int(pkt.Size())})
}

// OnArrive implements netem.ArrivalTap; at is when the packet arrived,
// which a fused hop reports ahead of the loop's clock.
func (r *Recorder) OnArrive(l *netem.Link, pkt *packet.Packet, at sim.Time) {
	r.record(Event{At: at, Kind: KindArrive, link: l,
		UID: pkt.UID, Tag: pkt.IP.Tag, Size: int(pkt.Size())})
}

// OnDeliver implements netem.Tap.
func (r *Recorder) OnDeliver(n *netem.Node, pkt *packet.Packet) {
	r.record(Event{At: r.loop.Now(), Kind: KindDeliver, where: n.Name,
		UID: pkt.UID, Tag: pkt.IP.Tag, Size: int(pkt.Size())})
}

// OnDrop implements netem.Tap; at is when the packet was lost, which a
// fused hop reports ahead of the loop's clock.
func (r *Recorder) OnDrop(where string, pkt *packet.Packet, reason netem.DropReason, at sim.Time) {
	r.record(Event{At: at, Kind: KindDrop, where: where,
		UID: pkt.UID, Tag: pkt.IP.Tag, Size: int(pkt.Size()), Reason: reason})
}

// Len returns the number of retained events, Total the number observed.
func (r *Recorder) Len() int {
	if r.total < uint64(len(r.ring)) {
		return int(r.total)
	}
	return len(r.ring)
}

// Total returns the number of events observed over the run.
func (r *Recorder) Total() uint64 { return r.total }

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	n := r.Len()
	out := make([]Event, 0, n)
	start := 0
	if r.total >= uint64(len(r.ring)) {
		start = r.next
	}
	for i := 0; i < n; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// eventJSON is the NDJSON line schema of one flight-recorder event.
type eventJSON struct {
	// Seq is the event's global index over the run (the first observed
	// event is 0), so a dump states how far back its tail reaches.
	Seq   uint64 `json:"seq"`
	AtNs  int64  `json:"at_ns"`
	Kind  string `json:"kind"`
	Where string `json:"where"`
	UID   uint64 `json:"uid"`
	Tag   int    `json:"tag"`
	Size  int    `json:"size"`
	// Reason is set for drops only.
	Reason string `json:"reason,omitempty"`
}

// WriteNDJSON dumps the retained tail, oldest first, one JSON object per
// line. Link names are resolved here, not at record time.
func (r *Recorder) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	events := r.Events()
	first := r.total - uint64(len(events))
	for i, e := range events {
		line := eventJSON{
			Seq:   first + uint64(i),
			AtNs:  int64(e.At),
			Kind:  e.Kind.String(),
			Where: e.Where(),
			UID:   e.UID,
			Tag:   int(e.Tag),
			Size:  e.Size,
		}
		if e.Kind == KindDrop {
			line.Reason = e.Reason.String()
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}
