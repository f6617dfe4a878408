package tcp

// Allocation gate for the TCP timer path: the RTO re-arm every ACK
// performs and the delayed-ACK re-arm must not allocate once the loop arena
// is warm, and a pending timer is re-keyed in place (sim.Loop.Rearm), never
// stopped and scheduled on a fresh node.

import (
	"testing"
	"time"
	"unsafe"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/unit"
)

func TestArmRTOZeroAlloc(t *testing.T) {
	c := &Conn{loop: sim.NewLoop()}
	c.rtoCall.c = c
	c.delAckCall.c = c
	c.armRTO(time.Second) // warm the arena
	allocs := testing.AllocsPerRun(1000, func() {
		c.armRTO(time.Second)
	})
	if allocs != 0 {
		t.Fatalf("RTO re-arm allocates %.1f objects, want 0", allocs)
	}
	if n := c.loop.Counters().Recycled; n != 0 {
		t.Fatalf("RTO re-arms recycled %d nodes, want 0 (re-keyed in place)", n)
	}
	c.stopRTO()

	// The delayed-ACK arm is the same pattern on the receive side: the
	// first segment to wait for an ACK re-arms a timer an immediate ACK
	// left pending.
	c.delAckTimer = c.loop.Rearm(c.delAckTimer, DefaultDelAckTimeout, &c.delAckCall)
	recycled := c.loop.Counters().Recycled
	allocs = testing.AllocsPerRun(1000, func() {
		c.delAckTimer = c.loop.Rearm(c.delAckTimer, DefaultDelAckTimeout, &c.delAckCall)
	})
	if allocs != 0 {
		t.Fatalf("delayed-ACK re-arm allocates %.1f objects, want 0", allocs)
	}
	if n := c.loop.Counters().Recycled - recycled; n != 0 || c.loop.Len() != 1 {
		t.Fatalf("delayed-ACK re-arms recycled %d nodes and left %d events pending, want 0 and 1", n, c.loop.Len())
	}
}

// steadyState advances the connection past slow start and slice-capacity
// warm-up, then measures the allocation bill of further simulated time.
func steadyState(t *testing.T, tn *testNet, warm time.Duration) float64 {
	t.Helper()
	deadline := sim.Time(0).Add(warm)
	if err := tn.loop.RunUntil(deadline); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(20, func() {
		deadline = deadline.Add(10 * time.Millisecond)
		if err := tn.loop.RunUntil(deadline); err != nil {
			t.Fatal(err)
		}
	})
}

// Segment-construction gate: a warm bulk connection streams data, ACKs
// and delayed ACKs with every packet drawn from the run's arena — a slice
// of steady-state traffic allocates nothing.
func TestBulkSteadyStateZeroAlloc(t *testing.T) {
	tn := newTestNet(t, 50*unit.Mbps, 5*time.Millisecond, 256*1500)
	tn.startBulk(t, &limitedSource{remaining: 1 << 30}, nil)
	if allocs := steadyState(t, tn, 300*time.Millisecond); allocs != 0 {
		t.Fatalf("steady-state bulk transfer allocates %.1f objects per 10ms, want 0", allocs)
	}
}

// modDrop drops every nth data packet, forcing periodic fast-retransmit
// episodes throughout the measured window.
type modDrop struct {
	n     int
	count int
}

func (d *modDrop) OnEnqueue(_ *netem.Link, p *packet.Packet) bool {
	if p.TCP == nil || p.PayloadLen == 0 {
		return false
	}
	d.count++
	return d.count%d.n == 0
}

// Retransmit gate: with a steady loss process the SACK scoreboard marks,
// recovers and retransmits continuously; every retransmitted segment must
// come from the arena too, so the bill stays zero.
func TestRetransmitSteadyStateZeroAlloc(t *testing.T) {
	tn := newTestNet(t, 50*unit.Mbps, 5*time.Millisecond, 256*1500)
	conn, _ := tn.startBulk(t, &limitedSource{remaining: 1 << 30}, nil)
	tn.fwd.SetAQM(&modDrop{n: 100})
	if allocs := steadyState(t, tn, 300*time.Millisecond); allocs != 0 {
		t.Fatalf("steady-state loss recovery allocates %.1f objects per 10ms, want 0", allocs)
	}
	if conn.Stats.Retransmits == 0 {
		t.Fatal("gate measured nothing: no segments were retransmitted")
	}
}

// TestQueueRecordSizes pins the two records a run allocates most of its
// bytes in: the scoreboard and the out-of-order queue hold thousands of
// them through slow-start overshoot.
func TestQueueRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(seg{}); n > 32 {
		t.Errorf("seg is %d bytes, want <= 32", n)
	}
	if n := unsafe.Sizeof(rseg{}); n > 16 {
		t.Errorf("rseg is %d bytes, want <= 16", n)
	}
}

// TestConnSize pins the connection record at its measured 680 bytes, inside
// the 704-byte malloc size class. The allocator puts an 8-byte header in
// front of a pointerful object this large, so the class holds a record of
// up to 696 bytes. Every run allocates one per subflow end and per
// cross-traffic flow: a field that pushes it into the next class (768)
// raises every workload's allocation bill by 64 bytes a connection.
func TestConnSize(t *testing.T) {
	if n := unsafe.Sizeof(Conn{}); n > 680 {
		t.Errorf("Conn is %d bytes, want <= 680", n)
	}
}
