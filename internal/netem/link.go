package netem

import (
	"fmt"
	"time"

	"mptcpsim/internal/fifo"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// AQM is a queue-admission policy. OnEnqueue runs for every arriving
// packet and reports whether it must be dropped instead of queued; the hard
// capacity check still applies afterwards.
type AQM interface {
	// OnEnqueue reports whether to drop the arriving packet.
	OnEnqueue(l *Link, pkt *packet.Packet) bool
}

// DropTail is the default policy: drop only on overflow (the overflow check
// itself lives in the link, so DropTail never drops here).
type DropTail struct{}

// OnEnqueue implements AQM.
func (DropTail) OnEnqueue(*Link, *packet.Packet) bool { return false }

// LinkCounters accumulates per-link statistics, in the spirit of the
// per-interface counter maps of kernel dataplanes.
type LinkCounters struct {
	TxPackets uint64
	TxBytes   uint64
	// Offered counts every packet presented to the transmit queue,
	// whatever its fate. Conservation holds at all times:
	// Offered = TxPackets + dropped + queued + mid-serialisation.
	Offered uint64
	// Drops is indexed by DropReason.
	Drops [numDropReasons]uint64
	// MaxQueue is the high-water mark of queued bytes.
	MaxQueue unit.ByteSize
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
// Spec.Delay of propagation.
type Link struct {
	net  *Network
	Spec topo.Link
	// name is the "v1->v2" label, rendered once at construction so the
	// drop path (which reports it per packet) stays allocation-free.
	name string

	// capBytes is the queue capacity actually in force.
	capBytes unit.ByteSize
	aqm      AQM

	q            fifo.Queue[*packet.Packet]
	queuedBytes  unit.ByteSize
	transmitting bool

	// txPkt/txTime hold the frame currently serialising and its committed
	// transmission time; infl is the FIFO of frames that left the
	// transmitter and are still propagating. Arrivals on a link are FIFO by
	// construction, so only infl's head has a pending arrive event: each
	// frame's place in the event order is reserved when it leaves the
	// transmitter and armed when it reaches the head. Together with the
	// pre-bound txDone/arrive callbacks this makes a packet's whole transit
	// schedule on pooled event nodes with zero heap allocations, and keeps
	// the loop's pending set independent of the bandwidth-delay product.
	txPkt  *packet.Packet
	txTime time.Duration
	infl   fifo.Queue[inflight]
	txDone txDoneCallback
	arrive arriveCallback

	// memoSize/memoRate/memoTx memoise the last TxTime computation:
	// traffic on a link is overwhelmingly one or two packet sizes, and the
	// cached value is the exact duration the division produced, so reuse
	// is bit-identical.
	memoSize unit.ByteSize
	memoRate unit.Rate
	memoTx   time.Duration

	// down marks the link administratively dead (dynamic LinkDown event).
	down bool
	// cut latches, at SetDown time, that the frame currently serialising
	// was severed — a link_up before its tx-completion must not resurrect
	// it.
	cut bool
	// lastArrivalAt is the latest scheduled arrival at the far node, so a
	// runtime delay cut cannot make a later frame overtake an in-flight one.
	lastArrivalAt sim.Time

	lossProb float64
	lossRng  *sim.Rand

	Counters LinkCounters
}

func newLink(n *Network, spec topo.Link) *Link {
	cap := spec.Queue
	if cap <= 0 {
		cap = spec.Rate.Bytes(DefaultQueueTime)
		if cap < MinQueue {
			cap = MinQueue
		}
	}
	l := &Link{
		net:      n,
		Spec:     spec,
		capBytes: cap,
		aqm:      DropTail{},
	}
	l.name = fmt.Sprintf("%s->%s", n.Graph.Node(spec.From).Name, n.Graph.Node(spec.To).Name)
	l.txDone.l = l
	l.arrive.l = l
	return l
}

// txDoneCallback adapts serialisation completion to sim.Callback: one
// frame serialises at a time, so the link itself carries the in-flight
// frame and no closure is needed.
type txDoneCallback struct{ l *Link }

// Run implements sim.Callback.
func (c *txDoneCallback) Run(now sim.Time) { c.l.finishTx(now) }

// inflight is one propagating frame: its committed arrival time and the
// scheduling seq reserved for the arrival when the frame left the
// transmitter.
type inflight struct {
	pkt *packet.Packet
	at  sim.Time
	seq uint64
}

// arriveCallback adapts propagation arrival to sim.Callback. Arrivals on
// one link fire in transmit order (times are clamped monotone and the
// loop breaks ties by scheduling sequence), so the link's in-flight FIFO
// identifies the arriving frame without a per-event closure.
type arriveCallback struct{ l *Link }

// Run implements sim.Callback.
func (c *arriveCallback) Run(sim.Time) { c.l.arrival() }

// Name renders "v1->v2" for stats and drop reporting.
func (l *Link) Name() string { return l.name }

// QueueCap returns the queue capacity in force (after defaulting).
func (l *Link) QueueCap() unit.ByteSize { return l.capBytes }

// SetQueueCap replaces the queue capacity. Packets already queued stay.
func (l *Link) SetQueueCap(c unit.ByteSize) { l.capBytes = c }

// SetAQM replaces the admission policy (default DropTail).
func (l *Link) SetAQM(a AQM) { l.aqm = a }

// SetLoss configures an independent random loss probability per packet,
// modelling a lossy (wireless) channel.
func (l *Link) SetLoss(p float64, rng *sim.Rand) {
	l.lossProb = p
	l.lossRng = rng
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
// or a degraded radio). The frame being serialised completes at the old
// rate — its transmission time was committed when it started — and every
// later frame is paced at the new rate. The queue capacity is unchanged:
// buffer memory does not come and go with the line rate. Rates must be
// positive; use SetDown for an outage.
func (l *Link) SetRate(r unit.Rate) {
	if r <= 0 {
		panic("netem: SetRate needs a positive rate; use SetDown for outages")
	}
	l.Spec.Rate = r
}

// SetDelay changes the one-way propagation delay at run time. Frames
// already propagating keep their committed arrival times; if the delay
// shrinks, the next arrivals are clamped to the latest in-flight arrival so
// the link never reorders (FIFO is preserved by construction).
func (l *Link) SetDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	l.Spec.Delay = d
}

// SetDown takes the link down: the transmit queue is drained (every queued
// packet dropped with DropLinkDown), a frame mid-serialisation is cut (it
// never reaches the far node), and packets arriving while down are dropped
// on admission. Frames that already left the transmitter are past the cut
// and still propagate.
func (l *Link) SetDown() {
	l.down = true
	if l.transmitting {
		l.cut = true
	}
	for l.queueLen() > 0 {
		pkt := l.pop()
		l.queuedBytes -= pkt.Size()
		l.drop(pkt, DropLinkDown)
	}
}

// SetUp restores a downed link. The queue starts empty; the transmitter
// resumes as new packets arrive.
func (l *Link) SetUp() {
	if !l.down {
		return
	}
	l.down = false
	l.startTx()
}

// Utilisation returns the fraction of the elapsed simulation time the
// transmitter was busy.
func (l *Link) Utilisation() float64 {
	now := l.net.Loop.Now()
	if now == 0 {
		return 0
	}
	return float64(l.Counters.Busy) / float64(now.Duration())
}

func (l *Link) drop(pkt *packet.Packet, reason DropReason) {
	l.Counters.Drops[reason]++
	l.net.tapDrop(l.Name(), pkt, reason)
}

// QueueLen returns the number of packets waiting in the transmit queue
// (excluding a frame mid-serialisation).
func (l *Link) QueueLen() int { return l.queueLen() }

// Transmitting reports whether a frame is being serialised right now.
func (l *Link) Transmitting() bool { return l.transmitting }

// enqueue admits a packet to the transmit queue.
func (l *Link) enqueue(pkt *packet.Packet) {
	l.Counters.Offered++
	if l.down {
		l.drop(pkt, DropLinkDown)
		return
	}
	if l.lossProb > 0 && l.lossRng != nil && l.lossRng.Bool(l.lossProb) {
		l.drop(pkt, DropRandom)
		return
	}
	if l.aqm.OnEnqueue(l, pkt) {
		l.drop(pkt, DropAQM)
		return
	}
	if l.queuedBytes+pkt.Size() > l.capBytes {
		l.drop(pkt, DropQueueFull)
		return
	}
	l.q.Push(pkt)
	l.queuedBytes += pkt.Size()
	if l.queuedBytes > l.Counters.MaxQueue {
		l.Counters.MaxQueue = l.queuedBytes
	}
	l.startTx()
}

func (l *Link) pop() *packet.Packet {
	pkt := *l.q.At(0)
	l.q.Pop(1)
	return pkt
}

func (l *Link) queueLen() int { return l.q.Len() }

func (l *Link) startTx() {
	if l.down || l.transmitting || l.queueLen() == 0 {
		return
	}
	l.transmitting = true
	pkt := l.pop()
	sz := pkt.Size()
	l.queuedBytes -= sz
	l.txPkt = pkt
	if sz != l.memoSize || l.Spec.Rate != l.memoRate {
		l.memoSize, l.memoRate = sz, l.Spec.Rate
		l.memoTx = l.Spec.Rate.TxTime(sz)
	}
	l.txTime = l.memoTx
	l.net.Loop.ScheduleCall(l.txTime, &l.txDone)
}

// finishTx runs when the last bit of the serialising frame leaves the
// transmitter.
func (l *Link) finishTx(now sim.Time) {
	pkt := l.txPkt
	l.txPkt = nil
	l.Counters.Busy += l.txTime
	l.transmitting = false
	if l.down || l.cut {
		// The wire was cut mid-frame: the bits never arrive, even if
		// the link already came back up.
		l.cut = false
		l.drop(pkt, DropLinkDown)
		// A no-op while down; resumes any queue built up after an
		// early SetUp.
		l.startTx()
		return
	}
	l.Counters.TxPackets++
	l.Counters.TxBytes += uint64(pkt.Size())
	l.net.tapTransmit(l, pkt)
	// Propagate towards the far node while the transmitter moves on.
	// Arrival is clamped to the latest in-flight arrival so a runtime
	// delay cut cannot reorder frames (equal times keep FIFO by
	// scheduling sequence). The arrival's seq is reserved now, whether or
	// not the frame is the head, so it runs where a per-frame event
	// scheduled here would have.
	arriveAt := now.Add(l.Spec.Delay)
	if arriveAt < l.lastArrivalAt {
		arriveAt = l.lastArrivalAt
	}
	l.lastArrivalAt = arriveAt
	l.net.propagating++
	seq := l.net.Loop.ReserveSeq()
	if l.infl.Len() == 0 {
		l.net.Loop.AtCallReserved(arriveAt, seq, &l.arrive)
	}
	l.infl.Push(inflight{pkt: pkt, at: arriveAt, seq: seq})
	l.startTx()
}

// arrival runs when the in-flight FIFO's head frame reaches the far node,
// and arms the arrival of the frame behind it.
func (l *Link) arrival() {
	pkt := l.infl.At(0).pkt
	l.infl.Pop(1)
	if l.infl.Len() > 0 {
		next := l.infl.At(0)
		l.net.Loop.AtCallReserved(next.at, next.seq, &l.arrive)
	}
	l.net.propagating--
	l.net.tapArrive(l, pkt)
	l.net.nodes[l.Spec.To].receive(pkt)
}
