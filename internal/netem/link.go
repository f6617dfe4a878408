package netem

import (
	"time"

	"mptcpsim/internal/fifo"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// AQM is a queue-admission policy. OnEnqueue runs for every arriving
// packet and reports whether it must be dropped instead of queued; the hard
// capacity check (drop-tail, the whole policy of a link without an AQM)
// still applies afterwards.
type AQM interface {
	// OnEnqueue reports whether to drop the arriving packet.
	OnEnqueue(l *Link, pkt *packet.Packet) bool
}

// LinkCounters accumulates per-link statistics, in the spirit of the
// per-interface counter maps of kernel dataplanes. Offered and every drop
// but a cut frame's are counted as they happen; TxPackets, TxBytes, Busy and
// a cut frame's DropLinkDown when the link settles (Link.Settle).
type LinkCounters struct {
	TxPackets uint64
	TxBytes   uint64
	// Offered counts every packet presented to the transmit queue. After a
	// settle, Offered = TxPackets + dropped + queued + mid-serialisation.
	Offered uint64
	// Drops is indexed by DropReason.
	Drops [numDropReasons]uint64
	// Busy accumulates transmitter-active time, for utilisation.
	Busy time.Duration
}

// DropTotal sums the drop counters over all reasons.
func (c *LinkCounters) DropTotal() uint64 {
	var n uint64
	for _, v := range c.Drops {
		n += v
	}
	return n
}

// Link is the runtime transmitter for one directed link: a FIFO queue in
// front of a serialiser that moves Spec.Rate bits per second, followed by
// Spec.Delay of propagation. A frame's schedule is committed at admission
// and its departure settled lazily; see the package documentation.
type Link struct {
	net  *Network
	Spec topo.Link
	// name is the "v1->v2" label, rendered once at construction so the
	// drop path (which reports it per packet) stays allocation-free.
	name string

	// capBytes is the queue capacity actually in force.
	capBytes unit.ByteSize
	aqm      AQM

	// frames holds every admitted frame that has not arrived, oldest first.
	// The first departed of them have left the transmitter and propagate;
	// frames[departed] is the next to leave — on the transmitter since
	// txStart if serving, else queued to start at txStart — and the rest
	// are queued behind it; queuedBytes sums the queued ones. Only
	// frames[0] has a pending event (armed), under its reserved seq.
	frames      fifo.Queue[frame]
	departed    int
	serving     bool
	txStart     sim.Time
	queuedBytes unit.ByteSize
	armed       sim.Timer
	arrive      arriveCallback

	// memoSize/memoRate/memoTx memoise the last TxTime computation (a link
	// carries one or two packet sizes); the reused duration is bit-identical.
	memoSize unit.ByteSize
	memoRate unit.Rate
	memoTx   time.Duration

	// down marks the link administratively dead (dynamic LinkDown event).
	down bool
	// cutPkt is the frame SetDown severed mid-serialisation: it holds the
	// transmitter until cutEnd, its committed end, and never arrives.
	cutPkt *packet.Packet
	cutEnd sim.Time
	// lastArrivalAt is the arrival of the latest frame to leave, so a
	// runtime delay cut cannot make a later frame overtake it.
	lastArrivalAt sim.Time

	lossProb float64
	lossRng  *sim.Rand

	Counters LinkCounters
}

func newLink(n *Network, spec topo.Link) *Link {
	cap := spec.Queue
	if cap <= 0 {
		cap = max(spec.Rate.Bytes(DefaultQueueTime), MinQueue)
	}
	l := &Link{net: n, Spec: spec, capBytes: cap}
	l.frames.Adopt(frameBufs.Get(0))
	l.name = n.Graph.Node(spec.From).Name + "->" + n.Graph.Node(spec.To).Name
	l.arrive.l = l
	return l
}

// frameBufs keeps the frame queues of released networks for new links.
var frameBufs fifo.Pool[frame]

// frame is one admitted frame: until it leaves the transmitter t is the
// committed end of its serialisation, afterwards its committed arrival. seq
// is the scheduling seq reserved for that arrival at admission.
type frame struct {
	pkt *packet.Packet
	t   sim.Time
	seq uint64
}

// arriveCallback adapts propagation arrival to sim.Callback. Arrivals on
// one link fire in transmit order (times are clamped monotone, ties break
// by seq), so frames[0] is the arriving frame and no closure is needed.
type arriveCallback struct{ l *Link }

// Run implements sim.Callback.
func (c *arriveCallback) Run(now sim.Time) { c.l.arrival(now) }

// Name renders "v1->v2" for stats and drop reporting.
func (l *Link) Name() string { return l.name }

// QueueCap returns the queue capacity in force (after defaulting).
func (l *Link) QueueCap() unit.ByteSize { return l.capBytes }

// SetQueueCap replaces the queue capacity. Packets already queued stay.
func (l *Link) SetQueueCap(c unit.ByteSize) { l.capBytes = c }

// SetAQM installs an admission policy ahead of the drop-tail check.
func (l *Link) SetAQM(a AQM) { l.aqm = a }

// SetLoss configures an independent random loss probability per packet,
// modelling a lossy (wireless) channel.
func (l *Link) SetLoss(p float64, rng *sim.Rand) {
	l.lossProb, l.lossRng = p, rng
}

// SetLossProb changes the loss probability at run time, keeping the RNG
// stream installed by SetLoss so the run stays reproducible. The link must
// have an RNG before a positive probability is set (dynamics pre-installs
// one for every loss-event target before the simulation starts).
func (l *Link) SetLossProb(p float64) {
	if p > 0 && l.lossRng == nil {
		panic("netem: SetLossProb without an RNG; call SetLoss first")
	}
	l.lossProb = p
}

// LossProb returns the loss probability currently in force.
func (l *Link) LossProb() float64 { return l.lossProb }

// HasLossRng reports whether a loss RNG stream is installed.
func (l *Link) HasLossRng() bool { return l.lossRng != nil }

// SetRate changes the link capacity at run time (a capacity renegotiation
// or a degraded radio). The frame being serialised keeps the end committed
// when it started; every frame behind it is re-timed at the new rate. The
// queue capacity is unchanged. Rates must be positive; SetDown is the outage.
func (l *Link) SetRate(r unit.Rate) {
	if r <= 0 {
		panic("netem: SetRate needs a positive rate; use SetDown for outages")
	}
	l.settle(l.net.Loop.Now())
	l.Spec.Rate = r
	i, t := l.departed, l.txStart
	if l.cutPkt != nil {
		t = l.cutEnd
	} else if l.serving {
		t = l.frames.At(i).t
		i++
	}
	for ; i < l.frames.Len(); i++ {
		f := l.frames.At(i)
		t = t.Add(l.txTime(f.pkt.Size()))
		f.t = t
	}
	l.rearm()
}

// SetDelay changes the one-way propagation delay at run time. Frames
// already propagating keep their committed arrival times; if the delay
// shrinks, the next arrivals are clamped to the latest in-flight arrival so
// the link never reorders (FIFO is preserved by construction).
func (l *Link) SetDelay(d time.Duration) {
	l.settle(l.net.Loop.Now())
	l.Spec.Delay = max(d, 0)
	l.rearm()
}

// SetDown takes the link down: every queued packet is dropped with
// DropLinkDown, a frame mid-serialisation is cut (it holds the transmitter
// until its committed end and never arrives), and packets arriving while
// down are dropped on admission. Frames already propagating still arrive.
func (l *Link) SetDown() {
	l.settle(l.net.Loop.Now())
	l.down = true
	if l.departed == 0 {
		l.armed.Stop() // the oldest frame will not arrive
	}
	i := l.departed
	if l.serving {
		f := l.frames.At(i)
		l.cutPkt, l.cutEnd, l.serving = f.pkt, f.t, false
		i++
	}
	for ; i < l.frames.Len(); i++ {
		l.drop(l.frames.At(i).pkt, DropLinkDown)
	}
	l.queuedBytes = 0
	l.frames.Truncate(l.departed)
}

// SetUp restores a downed link: new packets queue behind a cut frame's rest.
func (l *Link) SetUp() { l.down = false }

// Settle books every departure through the current instant inclusive, for
// readers outside the event flow: end-of-run collection, audits.
func (l *Link) Settle() { l.settle(l.net.Loop.Now() + 1) }

// Utilisation returns the fraction of the elapsed simulation time the
// transmitter was busy, as of the last settle.
func (l *Link) Utilisation() float64 {
	if now := l.net.Loop.Now(); now > 0 {
		return float64(l.Counters.Busy) / float64(now.Duration())
	}
	return 0
}

func (l *Link) drop(pkt *packet.Packet, reason DropReason) {
	l.Counters.Drops[reason]++
	l.net.tapDrop(l.Name(), pkt, reason)
}

// QueueLen returns the number of packets waiting in the transmit queue
// (excluding a frame mid-serialisation), as of the last settle.
func (l *Link) QueueLen() int {
	if l.serving {
		return l.frames.Len() - l.departed - 1
	}
	return l.frames.Len() - l.departed
}

// Transmitting reports whether a frame, cut or not, holds the transmitter.
func (l *Link) Transmitting() bool { return l.serving || l.cutPkt != nil }

// txTime is Spec.Rate.TxTime through the one-entry memo.
func (l *Link) txTime(sz unit.ByteSize) time.Duration {
	if sz != l.memoSize || l.Spec.Rate != l.memoRate {
		l.memoSize, l.memoRate = sz, l.Spec.Rate
		l.memoTx = l.Spec.Rate.TxTime(sz)
	}
	return l.memoTx
}

// enqueue admits a packet to the transmit queue and commits its schedule.
func (l *Link) enqueue(pkt *packet.Packet) {
	now := l.net.Loop.Now()
	l.settle(now)
	l.Counters.Offered++
	if l.down {
		l.drop(pkt, DropLinkDown)
		return
	}
	if l.lossProb > 0 && l.lossRng != nil && l.lossRng.Bool(l.lossProb) {
		l.drop(pkt, DropRandom)
		return
	}
	if l.aqm != nil && l.aqm.OnEnqueue(l, pkt) {
		l.drop(pkt, DropAQM)
		return
	}
	sz := pkt.Size()
	if l.queuedBytes+sz > l.capBytes {
		l.drop(pkt, DropQueueFull)
		return
	}
	n := l.frames.Len()
	start := now
	switch {
	case n > l.departed:
		start = l.frames.At(n - 1).t
		l.queuedBytes += sz
	case l.cutPkt != nil:
		start = l.cutEnd
		l.queuedBytes += sz
	default:
		l.serving, l.txStart = true, now
	}
	l.frames.Push(frame{pkt: pkt, t: start.Add(l.txTime(sz)), seq: l.net.Loop.ReserveSeq()})
	if n == 0 {
		l.arm()
	}
}

// settle books what the transmitter did strictly before the given time: a
// frame that started leaves the queue, one that ended leaves the transmitter.
func (l *Link) settle(before sim.Time) {
	if l.cutPkt != nil {
		if l.cutEnd >= before {
			return
		}
		l.Counters.Busy += l.cutEnd.Sub(l.txStart)
		l.txStart = l.cutEnd
		l.drop(l.cutPkt, DropLinkDown)
		l.cutPkt = nil
	}
	for l.departed < l.frames.Len() {
		f := l.frames.At(l.departed)
		if !l.serving {
			if l.txStart >= before {
				return
			}
			l.serving = true
			l.queuedBytes -= f.pkt.Size()
		}
		if f.t >= before {
			return
		}
		l.Counters.Busy += f.t.Sub(l.txStart)
		l.txStart, l.serving = f.t, false
		l.Counters.TxPackets++
		l.Counters.TxBytes += uint64(f.pkt.Size())
		l.net.tapTransmit(l, f.pkt, f.t)
		// Propagate, never arriving before the frame ahead: a runtime delay
		// cut cannot reorder (equal times keep FIFO by scheduling seq).
		f.t = max(f.t.Add(l.Spec.Delay), l.lastArrivalAt)
		l.lastArrivalAt = f.t
		l.departed++
	}
}

// arm schedules the arrival of the oldest frame under its reserved seq. With
// everything ahead arrived, no clamp binds one still on this side of the wire.
func (l *Link) arm() {
	f := l.frames.At(0)
	at := f.t
	if l.departed == 0 {
		at = at.Add(l.Spec.Delay)
	}
	l.armed = l.net.Loop.AtCallReserved(at, f.seq, &l.arrive)
}

// rearm moves the pending arrival of an oldest frame a mutator re-timed.
func (l *Link) rearm() {
	if l.departed == 0 && l.frames.Len() > 0 {
		l.armed.Stop()
		l.arm()
	}
}

// arrival runs when the oldest frame reaches the far node, and arms the
// arrival of the frame behind it. Arming comes before forwarding, and must
// stay there: the kernel hands an event's first schedule the fired entry's
// heap slot (one sift, no pop and push), so on a busy link the next arrival
// has to be that first schedule, not whatever the far node schedules.
func (l *Link) arrival(now sim.Time) {
	l.settle(now)
	if l.departed == 0 {
		// No propagation delay: the frame ends and arrives in this instant.
		l.settle(now + 1)
	}
	pkt := l.frames.At(0).pkt
	l.frames.Pop(1)
	l.departed--
	if l.frames.Len() > 0 {
		l.arm()
	}
	l.net.tapArrive(l, pkt)
	l.net.nodes[l.Spec.To].receive(pkt)
}
