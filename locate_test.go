package mptcpsim

// The first-divergence locator: a run's host events (a segment handed to
// the network, one delivered, one dropped) folded into a rolling SHA-256
// with a checkpoint every 2^k events, and a helper that runs one option set
// twice — hops fused as every run fuses them, and every hop an event —
// and names the first window of events where the two differ. The names are
// exported for the corpus tests of package mptcpsim_test.
//
// The events are folded in virtual-time order, and the events of one
// instant in a canonical order: a fused hop reports a drop when its feeder
// admits the packet, ahead of the clock, so the order of the calls is not
// what the two runs share.

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"slices"
	"strings"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
)

// hostEvent is one event at a host: what happened, when, and to which
// segment of which flow.
type hostEvent struct {
	at       sim.Time
	kind     string // "send", "deliver" or "drop"
	tag      packet.Tag
	src, dst packet.Port
	seq      uint32
	length   int
}

// compareEvents orders events by time, then canonically.
func compareEvents(a, b hostEvent) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.kind, b.kind), cmp.Compare(a.tag, b.tag),
		cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst), cmp.Compare(a.seq, b.seq), cmp.Compare(a.length, b.length))
}

func (e hostEvent) String() string {
	return fmt.Sprintf("t=%v %-7s tag %d flow %d>%d seq %d len %d", e.at, e.kind, e.tag, e.src, e.dst, e.seq, e.length)
}

// HostTap observes a run's host events. It folds each into a rolling
// SHA-256 and records the digest after every 2^K events; events whose index
// falls in [Keep, Keep+2^K) are also retained. Events wait in a buffer
// until the clock passes their instant, which no later call can report an
// event before. It only observes.
type HostTap struct {
	K    uint
	Keep uint64

	loop        *sim.Loop
	h           hash.Hash
	n           uint64
	waiting     []hostEvent
	checkpoints [][sha256.Size]byte
	kept        []hostEvent
}

func (t *HostTap) record(pkt *packet.Packet, kind string, at sim.Time) {
	e := hostEvent{at: at, kind: kind, tag: pkt.IP.Tag, length: pkt.PayloadLen}
	if pkt.TCP != nil {
		e.src, e.dst, e.seq = pkt.TCP.SrcPort, pkt.TCP.DstPort, pkt.TCP.Seq
	}
	t.fold(t.loop.Now())
	t.waiting = append(t.waiting, e)
}

// fold hashes the waiting events before the given time, in order.
func (t *HostTap) fold(before sim.Time) {
	slices.SortFunc(t.waiting, compareEvents)
	i := 0
	for ; i < len(t.waiting) && t.waiting[i].at < before; i++ {
		t.add(t.waiting[i])
	}
	t.waiting = append(t.waiting[:0], t.waiting[i:]...)
}

// finish folds what is left when the run is over; the partial last window
// counts as a checkpoint of its own.
func (t *HostTap) finish() {
	t.fold(sim.End)
	if t.n%(1<<t.K) != 0 {
		t.checkpoints = append(t.checkpoints, [sha256.Size]byte(t.h.Sum(nil)))
	}
}

func (t *HostTap) add(e hostEvent) {
	if t.h == nil {
		t.h = sha256.New()
	}
	var buf [8 + 1 + 8 + 2 + 2 + 4 + 8]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(e.at))
	buf[8] = e.kind[0]
	binary.LittleEndian.PutUint64(buf[9:], uint64(e.tag))
	binary.LittleEndian.PutUint16(buf[17:], uint16(e.src))
	binary.LittleEndian.PutUint16(buf[19:], uint16(e.dst))
	binary.LittleEndian.PutUint32(buf[21:], e.seq)
	binary.LittleEndian.PutUint64(buf[25:], uint64(e.length))
	t.h.Write(buf[:])
	if t.n >= t.Keep && t.n < t.Keep+1<<t.K {
		t.kept = append(t.kept, e)
	}
	t.n++
	if t.n%(1<<t.K) == 0 {
		t.checkpoints = append(t.checkpoints, [sha256.Size]byte(t.h.Sum(nil)))
	}
}

// OnSend implements netem.SendTap.
func (t *HostTap) OnSend(_ *netem.Node, pkt *packet.Packet) { t.record(pkt, "send", t.loop.Now()) }

// OnDeliver implements netem.Tap.
func (t *HostTap) OnDeliver(_ *netem.Node, pkt *packet.Packet) {
	t.record(pkt, "deliver", t.loop.Now())
}

// OnDrop implements netem.Tap.
func (t *HostTap) OnDrop(_ string, pkt *packet.Packet, _ netem.DropReason, at sim.Time) {
	t.record(pkt, "drop", at)
}

// hopRun is what a run through the seam leaves beside its Result: the
// network (its links' counters stay readable), the links the timeline
// mutates, and the number of links Fuse joined to their feeders.
type hopRun struct {
	net     *netem.Network
	mutated []topo.LinkID
	fused   int
}

// runHops runs opts on nw as Run does, with hops fused or (perHop) every
// hop an event, tap (if any) attached before the first packet.
func runHops(nw *Network, opts Options, perHop bool, tap *HostTap) (*Result, hopRun, error) {
	opts = opts.withDefaults()
	pre, err := prepare(nw, opts.Duration, opts.SampleInterval)
	if err != nil {
		return nil, hopRun{}, err
	}
	return simulateHops(pre, opts, perHop, tap)
}

// RunSpecHops is runHops for an expanded grid point; it returns the number
// of links Fuse joined to their feeders.
func RunSpecHops(spec RunSpec, perHop bool, tap *HostTap) (*Result, int, error) {
	pre, err := spec.cell.prepared()
	if err != nil {
		return nil, 0, err
	}
	res, hr, err := simulateHops(pre, spec.Options, perHop, tap)
	return res, hr.fused, err
}

func simulateHops(pre *prepared, opts Options, perHop bool, tap *HostTap) (*Result, hopRun, error) {
	var hr hopRun
	res, err := pre.simulateFused(opts, func(net *netem.Network, horizon sim.Time, mutated []topo.LinkID) int {
		hr.net, hr.mutated = net, mutated
		if tap != nil {
			tap.loop = net.Loop
			net.AttachTap(tap)
		}
		if !perHop {
			hr.fused = net.Fuse(horizon, mutated)
		}
		return hr.fused
	})
	return res, hr, err
}

// FirstDivergence runs spec fused and per-hop with a checkpoint every 2^k
// host events and returns "" if the two runs' host events are identical,
// else the first window of 2^k events that differs, the two runs side by
// side from a few events before the first difference.
func FirstDivergence(spec RunSpec, k uint) (string, error) {
	run := func(perHop bool, keep uint64) (*HostTap, error) {
		tap := &HostTap{K: k, Keep: keep}
		_, _, err := RunSpecHops(spec, perHop, tap)
		tap.finish()
		return tap, err
	}
	fused, err := run(false, 0)
	if err != nil {
		return "", err
	}
	perHop, err := run(true, 0)
	if err != nil {
		return "", err
	}
	w := 0
	for w < len(fused.checkpoints) && w < len(perHop.checkpoints) && fused.checkpoints[w] == perHop.checkpoints[w] {
		w++
	}
	if w == len(fused.checkpoints) && w == len(perHop.checkpoints) {
		return "", nil
	}
	keep := uint64(w) << k
	if fused, err = run(false, keep); err != nil {
		return "", err
	}
	if perHop, err = run(true, keep); err != nil {
		return "", err
	}
	i := 0
	for i < len(fused.kept) && i < len(perHop.kept) && fused.kept[i] == perHop.kept[i] {
		i++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first divergence in host events [%d, %d) (fused %d events, per-hop %d): event %d\n",
		keep, keep+1<<k, fused.n, perHop.n, keep+uint64(i))
	for j := max(i-4, 0); j < i+4; j++ {
		line := func(ev []hostEvent) string {
			if j < len(ev) {
				return ev[j].String()
			}
			return "(none)"
		}
		mark := " "
		if j >= i {
			mark = "!"
		}
		fmt.Fprintf(&b, "%s fused   %s\n%s per-hop %s\n", mark, line(fused.kept), mark, line(perHop.kept))
	}
	return b.String(), nil
}
