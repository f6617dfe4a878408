package mptcpsim

import (
	"fmt"
	"math"
	"time"

	"mptcpsim/internal/dynamics"
	"mptcpsim/internal/unit"
)

// Event types, the canonical spellings shared with the scenario JSON
// format. LinkDown/LinkUp/SetRate change the capacity structure and start
// a new LP epoch (the optimality gap is measured against the epoch in
// force); SetDelay/SetLoss/LossBurst change packet dynamics only.
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

// Event is one scheduled change to a link of a Network — the building
// block of dynamic scenarios (path failure, WiFi→cellular handover,
// capacity renegotiation). Events address duplex links by node-name pair
// like every other link override and apply to both directions. Only the
// parameter matching the Type is used.
type Event struct {
	// At is the virtual time the event fires.
	At time.Duration
	// Type is one of the Event* constants.
	Type string
	// A and B name the link's endpoints.
	A, B string
	// Mbps is the new capacity (set_rate).
	Mbps float64
	// Delay is the new one-way propagation delay (set_delay).
	Delay time.Duration
	// Loss is the new loss probability (set_loss) or the in-burst
	// probability (loss_burst).
	Loss float64
	// Burst is the loss-burst window length (loss_burst).
	Burst time.Duration
}

// String renders the event for reports ("2s link_down s-v1").
func (e Event) String() string {
	d, err := e.internal()
	if err != nil {
		return fmt.Sprintf("%v %s %s-%s (invalid)", e.At, e.Type, e.A, e.B)
	}
	return d.String()
}

// internal converts to the dynamics representation.
func (e Event) internal() (dynamics.Event, error) {
	kind, err := dynamics.ParseKind(e.Type)
	if err != nil {
		return dynamics.Event{}, fmt.Errorf("mptcpsim: event at %v: %w", e.At, err)
	}
	// Round like AddLink rounds capacities, keeping emit -> build a
	// fixpoint for non-representable rates.
	return dynamics.Event{
		At:    e.At,
		Kind:  kind,
		A:     e.A,
		B:     e.B,
		Rate:  unit.Rate(math.Round(e.Mbps * float64(unit.Mbps))),
		Delay: e.Delay,
		Loss:  e.Loss,
		Burst: e.Burst,
	}, nil
}

// fromInternal converts a dynamics event back to the public form.
func fromInternal(d dynamics.Event) Event {
	return Event{
		At:    d.At,
		Type:  d.Kind.String(),
		A:     d.A,
		B:     d.B,
		Mbps:  d.Rate.Mbit(),
		Delay: d.Delay,
		Loss:  d.Loss,
		Burst: d.Burst,
	}
}

// AddEvent schedules a dynamic event on the network. The event itself is
// validated immediately (known type, existing link, parameter ranges);
// cross-event rules — down/up pairing, loss events inside burst windows —
// need the whole timeline and are checked when the network is run or
// exported.
func (n *Network) AddEvent(e Event) error {
	d, err := e.internal()
	if err != nil {
		return err
	}
	if _, err := dynamics.ValidateEvent(n.graph, d); err != nil {
		return fmt.Errorf("mptcpsim: %w", err)
	}
	n.events = append(n.events, e)
	return nil
}

// timeline builds and validates the internal event timeline (nil when the
// network is static).
func (n *Network) timeline() (*dynamics.Timeline, error) {
	if len(n.events) == 0 {
		return nil, nil
	}
	evs := make([]dynamics.Event, len(n.events))
	for i, e := range n.events {
		d, err := e.internal()
		if err != nil {
			return nil, err
		}
		evs[i] = d
	}
	tl, err := dynamics.New(n.graph, evs)
	if err != nil {
		return nil, fmt.Errorf("mptcpsim: %w", err)
	}
	return tl, nil
}
