package netem

// Unit tests for what used to be events: the end of a serialisation is no
// longer scheduled, so what it did — dequeue the next frame, book the
// departure, unblock a cut transmitter — is pinned here against the closed
// form, including the same-instant conventions (see the package doc).

import (
	"slices"
	"testing"
	"time"

	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/unit"
)

const ms = sim.Time(time.Millisecond)

// frame1250 is the payload of a 1250-byte wire frame: 10 ms at 1 Mbps.
const frame1250 = 1250 - packet.IPv4HeaderLen - packet.UDPHeaderLen

// checkConserved settles l and asserts the per-link conservation identity.
func checkConserved(t *testing.T, l *Link, when string) {
	t.Helper()
	l.Settle()
	c := &l.Counters
	inLink := uint64(l.QueueLen())
	if l.Transmitting() {
		inLink++
	}
	if c.Offered != c.TxPackets+c.DropTotal()+inLink {
		t.Fatalf("%s: offered %d != transmitted %d + dropped %d + in-link %d",
			when, c.Offered, c.TxPackets, c.DropTotal(), inLink)
	}
}

func TestBackToBackSendsOntoIdleLink(t *testing.T) {
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, 100*unit.KB)
	rec := &recorder{loop: loop}
	net.AttachTap(rec)
	if err := c.Register(9001, &sink{loop: loop}); err != nil {
		t.Fatal(err)
	}
	ab := net.Link(0)
	loop.Schedule(0, func() {
		a.Send(dataPkt(aAddr, cAddr, 1, frame1250))
		a.Send(dataPkt(aAddr, cAddr, 1, frame1250))
		if ab.QueueLen() != 1 || !ab.Transmitting() {
			t.Errorf("after two sends: %d queued, transmitting=%v; want 1, true", ab.QueueLen(), ab.Transmitting())
		}
	})
	if err := loop.RunUntil(25 * ms); err != nil {
		t.Fatal(err)
	}
	// a->b departures at 10 and 20 ms; b->c forwards the first at 11 ms.
	if want := []sim.Time{10 * ms, 20 * ms, 21 * ms}; !slices.Equal(rec.tx, want) {
		t.Fatalf("departures at %v, want %v", rec.tx, want)
	}
}

func TestQueueFullAtFrameEndStillDrops(t *testing.T) {
	// Room for exactly two queued frames. Three sends at 0: one in service
	// until 10 ms, two queued. A frame arriving at exactly 10 ms finds the
	// first still on the transmitter and the queue full; one nanosecond
	// later the second frame has started and there is room.
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, 2500)
	if err := c.Register(9001, &sink{loop: loop}); err != nil {
		t.Fatal(err)
	}
	ab := net.Link(0)
	send := func() { a.Send(dataPkt(aAddr, cAddr, 1, frame1250)) }
	loop.Schedule(0, func() { send(); send(); send() })
	loop.At(10*ms, func() {
		send()
		if got := ab.Counters.Drops[DropQueueFull]; got != 1 {
			t.Errorf("send at the frame's end: %d queue-full drops, want 1", got)
		}
	})
	loop.At(10*ms+1, func() {
		send()
		if got := ab.Counters.Drops[DropQueueFull]; got != 1 {
			t.Errorf("send 1 ns after the frame's end: %d queue-full drops, want still 1", got)
		}
		if ab.QueueLen() != 2 || ab.Counters.TxPackets != 1 {
			t.Errorf("1 ns after the frame's end: %d queued, %d transmitted; want 2, 1", ab.QueueLen(), ab.Counters.TxPackets)
		}
	})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	checkConserved(t, ab, "end")
	if ab.Counters.TxPackets != 4 {
		t.Fatalf("TxPackets = %d, want 4", ab.Counters.TxPackets)
	}
}

func TestCutFrameHoldsTransmitterAcrossEarlyUp(t *testing.T) {
	// The frame sent at 0 is cut at 2 ms; the link is back at 5 ms and a
	// frame sent at 7 ms waits for the dead frame's end at 10 ms.
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, 100*unit.KB)
	rec := &recorder{loop: loop}
	net.AttachTap(rec)
	if err := c.Register(9001, &sink{loop: loop}); err != nil {
		t.Fatal(err)
	}
	ab := net.Link(0)
	send := func() { a.Send(dataPkt(aAddr, cAddr, 1, frame1250)) }
	step := func(at time.Duration, what string, fn func()) {
		loop.Schedule(at, func() {
			fn()
			checkConserved(t, ab, what)
		})
	}
	step(0, "send", send)
	step(2*time.Millisecond, "down", ab.SetDown)
	step(5*time.Millisecond, "up", ab.SetUp)
	step(7*time.Millisecond, "send behind the cut frame", func() {
		send()
		if ab.QueueLen() != 1 || ab.Counters.Drops[DropLinkDown] != 0 {
			t.Errorf("at 7 ms: %d queued, %d link-down drops; want 1, 0 (the cut frame still holds the transmitter)",
				ab.QueueLen(), ab.Counters.Drops[DropLinkDown])
		}
	})
	step(12*time.Millisecond, "after the cut frame's end", func() {
		ab.Settle()
		if ab.QueueLen() != 0 || ab.Counters.Drops[DropLinkDown] != 1 {
			t.Errorf("at 12 ms: %d queued, %d link-down drops; want 0, 1", ab.QueueLen(), ab.Counters.Drops[DropLinkDown])
		}
	})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	checkConserved(t, ab, "end")
	// The live frame started at 10 ms: it leaves a->b at 20 ms, b->c at 31.
	if want := []sim.Time{20 * ms, 31 * ms}; !slices.Equal(rec.tx, want) {
		t.Fatalf("departures at %v, want %v", rec.tx, want)
	}
	if want := 20 * time.Millisecond; ab.Counters.Busy != want {
		t.Fatalf("Busy = %v, want %v (the cut frame's 10 ms count)", ab.Counters.Busy, want)
	}
}

func TestSetRateRetimesQueuedFrames(t *testing.T) {
	// Five frames at 1 Mbps, 10 ms each; the rate doubles at 5 ms. The one
	// in service ends at 10 ms as committed, the four behind it every 5 ms.
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, 100*unit.KB)
	tr := &arrivalTrace{loop: loop}
	net.AttachTap(tr)
	if err := c.Register(9001, &sink{loop: loop}); err != nil {
		t.Fatal(err)
	}
	loop.Schedule(0, func() {
		for i := 0; i < 5; i++ {
			a.Send(dataPkt(aAddr, cAddr, 1, frame1250))
		}
	})
	loop.Schedule(5*time.Millisecond, func() { net.Link(0).SetRate(2 * unit.Mbps) })
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	var got []sim.Time
	for _, r := range tr.arrivals {
		if r.link == 0 {
			got = append(got, r.at)
		}
	}
	if want := []sim.Time{11 * ms, 16 * ms, 21 * ms, 26 * ms, 31 * ms}; !slices.Equal(got, want) {
		t.Fatalf("arrivals over a->b at %v, want %v", got, want)
	}
	if want := 30 * time.Millisecond; net.Link(0).Counters.Busy != want {
		t.Fatalf("Busy = %v, want %v", net.Link(0).Counters.Busy, want)
	}
}

func TestSetDelayCutRearmsAndNeverReorders(t *testing.T) {
	// 50 ms of delay. Frame 1 is on the transmitter until 10 ms with its
	// arrival pending at 60 ms; cutting the delay to 1 ms at 5 ms moves that
	// arrival to 11 ms. Frame 2 leaves at 20 ms, frame 3 at 30 ms: raising
	// the delay to 50 ms at 15 ms and cutting it again at 25 ms leaves frame
	// 2 due at 70 ms, and frame 3 — due at 31 ms by its own delay — must not
	// overtake it.
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, 50*time.Millisecond, 100*unit.KB)
	tr := &arrivalTrace{loop: loop}
	net.AttachTap(tr)
	if err := c.Register(9001, &sink{loop: loop}); err != nil {
		t.Fatal(err)
	}
	ab := net.Link(0)
	net.Link(1).SetDelay(0)
	loop.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			a.Send(dataPkt(aAddr, cAddr, 1, frame1250))
		}
	})
	loop.Schedule(5*time.Millisecond, func() { ab.SetDelay(time.Millisecond) })
	loop.Schedule(15*time.Millisecond, func() { ab.SetDelay(50 * time.Millisecond) })
	loop.Schedule(25*time.Millisecond, func() { ab.SetDelay(time.Millisecond) })
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	var got []arrivalRec
	for _, r := range tr.arrivals {
		if r.link == 0 {
			got = append(got, r)
		}
	}
	want := []arrivalRec{{11 * ms, 0, 1}, {70 * ms, 0, 2}, {70 * ms, 0, 3}}
	if !slices.Equal(got, want) {
		t.Fatalf("arrivals over a->b %v, want %v", got, want)
	}
}

func TestReadersAfterRunEndingMidFrame(t *testing.T) {
	// Three frames at 0; the link goes down at 12 ms, cutting the second
	// (on the transmitter until 20 ms) and dropping the third.
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, 100*unit.KB)
	if err := c.Register(9001, &sink{loop: loop}); err != nil {
		t.Fatal(err)
	}
	ab := net.Link(0)
	loop.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			a.Send(dataPkt(aAddr, cAddr, 1, frame1250))
		}
	})
	loop.Schedule(12*time.Millisecond, ab.SetDown)
	read := func(until sim.Time, tx, downDrops uint64, transmitting bool, util float64) {
		t.Helper()
		if err := loop.RunUntil(until); err != nil {
			t.Fatal(err)
		}
		checkConserved(t, ab, until.String())
		if ab.Counters.TxPackets != tx || ab.Counters.Drops[DropLinkDown] != downDrops ||
			ab.Transmitting() != transmitting || ab.Utilisation() != util {
			t.Fatalf("at %v: %d transmitted, %d link-down drops, transmitting=%v, utilisation %v; want %d, %d, %v, %v",
				until, ab.Counters.TxPackets, ab.Counters.Drops[DropLinkDown], ab.Transmitting(), ab.Utilisation(),
				tx, downDrops, transmitting, util)
		}
	}
	read(5*ms, 0, 0, true, 0)      // mid-frame: nothing booked yet
	read(10*ms, 1, 0, true, 1)     // a run ending on a frame's end sees it gone
	read(16*ms, 1, 1, true, 0.625) // the cut frame still holds the transmitter
	read(20*ms, 1, 2, false, 1)    // and is dropped, busy time and all, at its end
}

// TestZeroDelayLinkIsFIFO covers what the differential oracle leaves out: on
// a link with no propagation delay a frame ends and arrives in one instant,
// with no event between the two.
func TestZeroDelayLinkIsFIFO(t *testing.T) {
	loop, net, a, c, aAddr, cAddr := lineNet(t, 8*unit.Mbps, 0, unit.MB)
	tr := &arrivalTrace{loop: loop}
	net.AttachTap(tr)
	s := &sink{loop: loop}
	if err := c.Register(9001, s); err != nil {
		t.Fatal(err)
	}
	// Wire sizes 500, 1000 and 1500 bytes: 0.5, 1 and 1.5 ms at 8 Mbps.
	sizes := []int{472, 972, 1472, 472, 972}
	loop.Schedule(0, func() {
		for _, sz := range sizes {
			a.Send(dataPkt(aAddr, cAddr, 1, sz))
		}
	})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	us := func(n int) sim.Time { return sim.Time(n) * sim.Time(time.Microsecond) }
	want := []arrivalRec{
		{us(500), 0, 1}, {us(1000), 1, 1}, {us(1500), 0, 2}, {us(2500), 1, 2},
		{us(3000), 0, 3}, {us(3500), 0, 4}, {us(4500), 0, 5}, {us(4500), 1, 3},
		{us(5000), 1, 4}, {us(6000), 1, 5},
	}
	if !slices.Equal(tr.arrivals, want) {
		t.Fatalf("arrivals %v, want %v", tr.arrivals, want)
	}
	for i, p := range s.pkts {
		if p.PayloadLen != sizes[i] {
			t.Fatalf("delivery %d has payload %d, want %d (reordered)", i, p.PayloadLen, sizes[i])
		}
	}
	if fired := loop.Counters().Fired; fired != uint64(len(want))+1 {
		t.Fatalf("%d events fired, want one per arrival plus the send", fired)
	}
	for _, l := range net.Links() {
		checkConserved(t, l, l.Name())
	}
}

// TestFrameKeyPacksSeqAndSize: a frame's key holds its two flags and its
// wire size without loss at both extremes (it no longer holds a seq), and
// on a link each frame's key carries its packet's size, so SetRate re-times
// the queue exactly as from pkt.Size().
func TestFrameKeyPacksSeqAndSize(t *testing.T) {
	for _, size := range []unit.ByteSize{0, 1500, 65535} {
		f := frame{key: uint32(size)}
		if f.size() != size || f.handedOn() {
			t.Errorf("key of size %d reads back size %d, handed on %v", size, f.size(), f.handedOn())
		}
		// The flags sit above the size and do not disturb it.
		f.key |= handedOn | told
		if f.size() != size || !f.handedOn() {
			t.Errorf("flagged key of size %d reads back size %d, handed on %v", size, f.size(), f.handedOn())
		}
	}

	loop, net, a, _, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, 200*unit.KB)
	hdr := packet.IPv4HeaderLen + packet.UDPHeaderLen
	payloads := []int{frame1250, 0, 9000 - hdr, 65535 - hdr, frame1250}
	loop.Schedule(0, func() {
		for _, n := range payloads {
			a.Send(dataPkt(aAddr, cAddr, 1, n))
		}
	})
	checked := false
	loop.Schedule(5*time.Millisecond, func() {
		l := net.Link(0)
		l.SetRate(3 * unit.Mbps)
		if !l.serving || l.departed != 0 || l.frames.Len() != len(payloads) {
			t.Fatalf("test setup: serving=%v departed=%d frames=%d, want the first of %d in service",
				l.serving, l.departed, l.frames.Len(), len(payloads))
		}
		for i := 0; i < l.frames.Len(); i++ {
			f := l.frames.At(i)
			if f.size() != f.pkt.Size() {
				t.Errorf("frame %d: key size %d, packet size %d", i, f.size(), f.pkt.Size())
			}
			if i == 0 {
				continue
			}
			if want := l.frames.At(i - 1).t.Add(l.Spec.Rate.TxTime(f.pkt.Size())); f.t != want {
				t.Errorf("frame %d re-timed to end at %v, want %v from pkt.Size()", i, f.t, want)
			}
		}
		checked = true
	})
	if err := loop.RunUntil(6 * ms); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("the re-timing check never ran")
	}
}
