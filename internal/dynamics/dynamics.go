// Package dynamics turns a static simulation into a time-varying one: a
// validated, time-ordered timeline of link events (outages, restorations,
// capacity renegotiations, delay shifts, loss changes and loss bursts)
// that the discrete-event loop applies to netem links at scheduled virtual
// times.
//
// The package also answers the analytic side of the same question: a
// timeline partitions a run into capacity epochs (every LinkDown / LinkUp
// / SetRate boundary starts a new one), and CapsAt reports the effective
// per-link capacities inside an epoch so the LP baseline can be re-solved
// piecewise — the optimality gap of a dynamic run is then measured against
// the optimum of the epoch that was actually in force, not against a
// topology that no longer exists.
package dynamics

import (
	"fmt"
	"sort"
	"time"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// Kind enumerates the dynamic event types.
type Kind int

// Event kinds. LinkDown, LinkUp and SetRate change the capacity structure
// and therefore start a new LP epoch; SetDelay, SetLoss and LossBurst
// change packet dynamics but not the achievable-rate polytope.
const (
	// LinkDown takes both directions of a duplex link out of service.
	LinkDown Kind = iota
	// LinkUp restores a previously downed link.
	LinkUp
	// SetRate changes the capacity of both directions.
	SetRate
	// SetDelay changes the one-way propagation delay of both directions.
	SetDelay
	// SetLoss changes the random-loss probability of both directions.
	SetLoss
	// LossBurst raises the loss probability for a bounded window, then
	// restores the probability that was in force when the burst began.
	LossBurst
)

// kindNames are the canonical spellings, shared with the scenario JSON
// format.
var kindNames = map[Kind]string{
	LinkDown:  "link_down",
	LinkUp:    "link_up",
	SetRate:   "set_rate",
	SetDelay:  "set_delay",
	SetLoss:   "set_loss",
	LossBurst: "loss_burst",
}

// String returns the canonical (JSON) spelling of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind resolves a canonical spelling back to its Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("dynamics: unknown event type %q (want link_down, link_up, set_rate, set_delay, set_loss or loss_burst)", s)
}

// Event is one scheduled change to a duplex link, addressed by its node
// names like every other link override in the simulator. Only the
// parameter matching the Kind is meaningful.
type Event struct {
	// At is the virtual time the event fires.
	At time.Duration
	// Kind selects what changes.
	Kind Kind
	// A and B name the duplex link's endpoints.
	A, B string
	// Rate is the new capacity (SetRate).
	Rate unit.Rate
	// Delay is the new one-way propagation delay (SetDelay).
	Delay time.Duration
	// Loss is the new loss probability (SetLoss) or the in-burst
	// probability (LossBurst).
	Loss float64
	// Burst is the loss-burst window length (LossBurst).
	Burst time.Duration
}

// String renders the event for markers and reports, e.g.
// "2s link_down s-v1".
func (e Event) String() string {
	s := fmt.Sprintf("%v %s %s-%s", e.At, e.Kind, e.A, e.B)
	switch e.Kind {
	case SetRate:
		s += " " + e.Rate.String()
	case SetDelay:
		s += " " + e.Delay.String()
	case SetLoss:
		s += fmt.Sprintf(" p=%g", e.Loss)
	case LossBurst:
		s += fmt.Sprintf(" p=%g for %v", e.Loss, e.Burst)
	}
	return s
}

// capacityKind reports whether the kind changes the capacity structure
// (and therefore the LP baseline).
func capacityKind(k Kind) bool {
	return k == LinkDown || k == LinkUp || k == SetRate
}

// Timeline is a validated, time-ordered event sequence bound to one
// topology. Construct it with New; the zero value is an empty timeline.
type Timeline struct {
	events []Event
	// links holds the two directed link IDs of each event's duplex pair,
	// indexed like events.
	links [][2]topo.LinkID
}

// New validates the events against the graph and returns them as a
// timeline ordered by firing time (stable: same-time events keep their
// input order). Validation is exhaustive so a sweep can reject a broken
// timeline before burning any simulation time: unknown links, negative
// times, out-of-range parameters, down/up mismatches (LinkDown on a link
// that is already down, LinkUp on one that is not) and loss events landing
// inside an active loss burst (the burst's restore would silently clobber
// them) are all structural errors.
func New(g *topo.Graph, events []Event) (*Timeline, error) {
	tl := &Timeline{events: append([]Event(nil), events...)}
	sort.SliceStable(tl.events, func(i, j int) bool { return tl.events[i].At < tl.events[j].At })
	tl.links = make([][2]topo.LinkID, len(tl.events))
	down := make(map[[2]topo.LinkID]bool)
	burstEnd := make(map[[2]topo.LinkID]time.Duration)
	for i, e := range tl.events {
		pair, err := ValidateEvent(g, e)
		if err != nil {
			return nil, err
		}
		tl.links[i] = pair
		switch e.Kind {
		case LinkDown:
			if down[pair] {
				return nil, fmt.Errorf("dynamics: event %q: link is already down", e)
			}
			down[pair] = true
		case LinkUp:
			if !down[pair] {
				return nil, fmt.Errorf("dynamics: event %q: link is not down", e)
			}
			down[pair] = false
		}
		if e.Kind == SetLoss || e.Kind == LossBurst {
			// <= : the burst's restore fires exactly at the end instant
			// with a later loop sequence number, so an event landing there
			// would run first and be silently reverted.
			if end, ok := burstEnd[pair]; ok && e.At <= end {
				return nil, fmt.Errorf("dynamics: event %q fires inside an active loss burst (ends %v, restore included); the burst restore would clobber it", e, end)
			}
			if e.Kind == LossBurst {
				burstEnd[pair] = e.At + e.Burst
			}
		}
	}
	return tl, nil
}

// Magnitude bounds on event parameters. Values anywhere near these are
// certainly typos in millisecond-scale configurations — and bounding them
// keeps every duration and rate below 2^51, where a float64 still resolves
// the scenario format's milliseconds to the nanosecond (and its Mbps to the
// bit per second).
const (
	// MaxEventTime bounds firing times and burst windows.
	MaxEventTime = 100 * time.Hour
	// MaxEventDelay bounds a set_delay target.
	MaxEventDelay = time.Hour
	// MaxEventRate bounds a set_rate target (1 Tbps).
	MaxEventRate = 1000 * unit.Gbps
)

// ValidateEvent checks one event in isolation — firing time, link
// existence, parameter ranges — and resolves its duplex pair. Cross-event
// rules (down/up pairing, burst overlaps) need the whole timeline and live
// in New.
func ValidateEvent(g *topo.Graph, e Event) ([2]topo.LinkID, error) {
	if e.At < 0 {
		return [2]topo.LinkID{}, fmt.Errorf("dynamics: event %q fires at negative time", e)
	}
	if e.At > MaxEventTime {
		return [2]topo.LinkID{}, fmt.Errorf("dynamics: event %q fires beyond %v", e, MaxEventTime)
	}
	pair, err := duplexIDs(g, e.A, e.B)
	if err != nil {
		return [2]topo.LinkID{}, fmt.Errorf("dynamics: event %q: %w", e, err)
	}
	switch e.Kind {
	case LinkDown, LinkUp:
	case SetRate:
		if e.Rate <= 0 {
			return pair, fmt.Errorf("dynamics: event %q: rate must be positive (use link_down for outages)", e)
		}
		if e.Rate > MaxEventRate {
			return pair, fmt.Errorf("dynamics: event %q: rate above %v", e, MaxEventRate)
		}
	case SetDelay:
		if e.Delay < 0 {
			return pair, fmt.Errorf("dynamics: event %q: negative delay", e)
		}
		if e.Delay > MaxEventDelay {
			return pair, fmt.Errorf("dynamics: event %q: delay above %v", e, MaxEventDelay)
		}
	case SetLoss:
		if e.Loss < 0 || e.Loss > 1 {
			return pair, fmt.Errorf("dynamics: event %q: loss probability out of [0,1]", e)
		}
	case LossBurst:
		if e.Loss <= 0 || e.Loss > 1 {
			return pair, fmt.Errorf("dynamics: event %q: burst loss probability out of (0,1]", e)
		}
		if e.Burst <= 0 {
			return pair, fmt.Errorf("dynamics: event %q: burst needs a positive duration", e)
		}
		if e.Burst > MaxEventTime {
			return pair, fmt.Errorf("dynamics: event %q: burst longer than %v", e, MaxEventTime)
		}
	default:
		return pair, fmt.Errorf("dynamics: event %q: unknown kind", e)
	}
	return pair, nil
}

// duplexIDs resolves both directions of the a-b link.
func duplexIDs(g *topo.Graph, a, b string) ([2]topo.LinkID, error) {
	na, ok := g.NodeByName(a)
	if !ok {
		return [2]topo.LinkID{}, fmt.Errorf("unknown node %q", a)
	}
	nb, ok := g.NodeByName(b)
	if !ok {
		return [2]topo.LinkID{}, fmt.Errorf("unknown node %q", b)
	}
	ab, ok := g.FindLink(na, nb)
	if !ok {
		return [2]topo.LinkID{}, fmt.Errorf("no link %s-%s", a, b)
	}
	ba, ok := g.FindLink(nb, na)
	if !ok {
		return [2]topo.LinkID{}, fmt.Errorf("no reverse link %s-%s", b, a)
	}
	// Normalised order so "s,v1" and "v1,s" name the same duplex pair in
	// the validation maps.
	if ba < ab {
		ab, ba = ba, ab
	}
	return [2]topo.LinkID{ab, ba}, nil
}

// Len returns the number of events.
func (tl *Timeline) Len() int {
	if tl == nil {
		return 0
	}
	return len(tl.events)
}

// EpochStarts returns the start times of the capacity epochs inside
// [0, horizon): 0 plus the distinct firing times of capacity-affecting
// events. Events at or past the horizon never take effect and open no
// epoch.
func (tl *Timeline) EpochStarts(horizon time.Duration) []time.Duration {
	starts := []time.Duration{0}
	if tl == nil {
		return starts
	}
	seen := map[time.Duration]bool{0: true}
	for _, e := range tl.events {
		if !capacityKind(e.Kind) || e.At >= horizon || seen[e.At] {
			continue
		}
		seen[e.At] = true
		starts = append(starts, e.At)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts
}

// CapsAt returns the effective capacity in Mbps of every directed link
// touched by a capacity event at or before t; 0 means down. Links never
// touched are absent (their graph capacity stands). The result is a fresh
// map the caller owns.
func (tl *Timeline) CapsAt(t time.Duration, g *topo.Graph) map[topo.LinkID]float64 {
	if tl == nil {
		return nil
	}
	type state struct {
		mbps float64
		down bool
	}
	st := make(map[topo.LinkID]state)
	get := func(id topo.LinkID) state {
		if s, ok := st[id]; ok {
			return s
		}
		return state{mbps: g.Link(id).Rate.Mbit()}
	}
	for i, e := range tl.events {
		if e.At > t || !capacityKind(e.Kind) {
			continue
		}
		for _, id := range tl.links[i][:] {
			s := get(id)
			switch e.Kind {
			case LinkDown:
				s.down = true
			case LinkUp:
				s.down = false
			case SetRate:
				s.mbps = e.Rate.Mbit()
			}
			st[id] = s
		}
	}
	if len(st) == 0 {
		return nil
	}
	caps := make(map[topo.LinkID]float64, len(st))
	for id, s := range st {
		if s.down {
			caps[id] = 0
		} else {
			caps[id] = s.mbps
		}
	}
	return caps
}

// Schedule installs the timeline on the loop, mutating net's links at each
// event's firing time. Loss targets that have no RNG stream yet get one
// from lossRng before the simulation starts, in ascending directed-link-ID
// order, so runs stay bit-identical for a given seed regardless of how the
// timeline was written. The timeline must have been built against net's
// graph.
func (tl *Timeline) Schedule(loop *sim.Loop, net *netem.Network, lossRng func() *sim.Rand) {
	if tl.Len() == 0 {
		return
	}
	// Pre-install RNG streams for every loss-event target, sorted.
	need := make(map[topo.LinkID]bool)
	for i, e := range tl.events {
		if e.Kind != SetLoss && e.Kind != LossBurst {
			continue
		}
		for _, id := range tl.links[i][:] {
			if !net.Link(id).HasLossRng() {
				need[id] = true
			}
		}
	}
	ids := make([]topo.LinkID, 0, len(need))
	for id := range need {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		net.Link(id).SetLoss(0, lossRng())
	}

	// One pre-bound apply struct per event, allocated in a single slice up
	// front: applying the timeline schedules no closures, so even
	// event-dense dynamic runs keep the loop's steady state allocation-free.
	apps := make([]applyEvent, len(tl.events))
	for i := range tl.events {
		apps[i] = applyEvent{tl: tl, loop: loop, net: net, idx: i}
		loop.AtCall(sim.Time(tl.events[i].At), &apps[i])
	}
}

// applyEvent is the pre-bound sim.Callback that fires one timeline event.
// A LossBurst needs a deferred restore per directed link; the two restore
// slots live inline so the burst schedules without allocating either.
type applyEvent struct {
	tl      *Timeline
	loop    *sim.Loop
	net     *netem.Network
	idx     int
	restore [2]burstRestore
}

// Run implements sim.Callback.
func (a *applyEvent) Run(sim.Time) {
	e := a.tl.events[a.idx]
	for k, id := range a.tl.links[a.idx][:] {
		l := a.net.Link(id)
		switch e.Kind {
		case LinkDown:
			l.SetDown()
		case LinkUp:
			l.SetUp()
		case SetRate:
			l.SetRate(e.Rate)
		case SetDelay:
			l.SetDelay(e.Delay)
		case SetLoss:
			l.SetLossProb(e.Loss)
		case LossBurst:
			r := &a.restore[k]
			r.link = l
			r.prev = l.LossProb()
			l.SetLossProb(e.Loss)
			a.loop.ScheduleCall(e.Burst, r)
		}
	}
}

// burstRestore reinstates the loss probability in force when its burst
// began. prev is captured at burst-fire time, not at scheduling time, so
// an earlier set_loss is honoured exactly as before.
type burstRestore struct {
	link *netem.Link
	prev float64
}

// Run implements sim.Callback.
func (b *burstRestore) Run(sim.Time) { b.link.SetLossProb(b.prev) }
