package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/route"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// lineNet builds a -> b -> c with the given rate/delay on both hops and a
// tag-1 route from a to c plus reverse — a replica of netem's internal
// test helper (netem's test package cannot be imported, and netem itself
// cannot import telemetry without a cycle).
func lineNet(t *testing.T, rate unit.Rate, delay time.Duration, queue unit.ByteSize) (*sim.Loop, *netem.Network, *netem.Node, *netem.Node, packet.Addr, packet.Addr) {
	t.Helper()
	g := topo.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	ab := g.AddLink(a, b, rate, delay, queue)
	bc := g.AddLink(b, c, rate, delay, queue)
	g.AddLink(c, b, rate, delay, queue)
	g.AddLink(b, a, rate, delay, queue)

	loop := sim.NewLoop()
	tt := route.NewTagTable(g)
	net, err := netem.New(loop, g, tt)
	if err != nil {
		t.Fatal(err)
	}
	aAddr := net.AssignAddr(a)
	cAddr := net.AssignAddr(c)
	fwd := topo.Path{Nodes: []topo.NodeID{a, b, c}, Links: []topo.LinkID{ab, bc}}
	if err := tt.AddPath(cAddr, 1, fwd); err != nil {
		t.Fatal(err)
	}
	rev, err := topo.ReversePath(g, fwd)
	if err != nil {
		t.Fatal(err)
	}
	if err := tt.AddPath(aAddr, 1, rev); err != nil {
		t.Fatal(err)
	}
	return loop, net, net.Node(a), net.Node(c), aAddr, cAddr
}

func dataPkt(src, dst packet.Addr, tag packet.Tag, payload int) *packet.Packet {
	return &packet.Packet{
		IP:         packet.IPv4{Tag: tag, Proto: packet.ProtoUDP, Src: src, Dst: dst},
		UDP:        &packet.UDP{SrcPort: 9000, DstPort: 9001},
		PayloadLen: payload,
	}
}

// countHandler consumes deliveries without touching the heap.
type countHandler struct{ n int }

func (h *countHandler) Deliver(*packet.Packet) { h.n++ }

// TestRecorderTailAndNDJSON drives real traffic through a recorder with a
// tiny ring and checks the flight-recorder contract: only the newest
// events are retained, oldest first, and the NDJSON dump carries
// consecutive global sequence numbers ending at the last engine event.
func TestRecorderTailAndNDJSON(t *testing.T) {
	loop, net, a, c, aAddr, cAddr := lineNet(t, 100e6, time.Millisecond, 100*1500)
	rec := NewRecorder(8)
	rec.Attach(net)
	h := &countHandler{}
	if err := c.Register(9001, h); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		a.Send(dataPkt(aAddr, cAddr, 1, 1000))
	}
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if h.n != 16 {
		t.Fatalf("delivered %d packets, want 16", h.n)
	}
	if rec.Len() != 8 {
		t.Fatalf("ring retained %d events, want 8", rec.Len())
	}
	// 16 packets x (send + 2 transmits + 2 arrivals + deliver) events.
	if want := uint64(16 * 6); rec.Total() != want {
		t.Fatalf("recorder observed %d events, want %d", rec.Total(), want)
	}
	events := rec.Events()
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("events not oldest-first: [%d]=%v after [%d]=%v",
				i, events[i].At, i-1, events[i-1].At)
		}
	}

	var buf bytes.Buffer
	if err := rec.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("dump has %d lines, want 8", len(lines))
	}
	type line struct {
		Seq   uint64 `json:"seq"`
		AtNs  int64  `json:"at_ns"`
		Kind  string `json:"kind"`
		Where string `json:"where"`
		UID   uint64 `json:"uid"`
		Size  int    `json:"size"`
	}
	kinds := map[string]bool{"send": true, "transmit": true, "arrive": true,
		"deliver": true, "drop": true}
	for i, raw := range lines {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("line %d: %v: %s", i, err, raw)
		}
		if want := rec.Total() - 8 + uint64(i); l.Seq != want {
			t.Fatalf("line %d: seq %d, want %d", i, l.Seq, want)
		}
		if !kinds[l.Kind] {
			t.Fatalf("line %d: unknown kind %q", i, l.Kind)
		}
		if l.Where == "" || l.Size <= 0 {
			t.Fatalf("line %d: missing where/size: %s", i, raw)
		}
	}
	// The run's final engine event is the last delivery at c.
	var last line
	if err := json.Unmarshal([]byte(lines[7]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Kind != "deliver" || last.Where != "c" {
		t.Fatalf("tail ends with %s@%s, want deliver@c", last.Kind, last.Where)
	}
}

// TestRecorderDropEvents overloads a tiny queue and checks drops land in
// the tail with their reason and location.
func TestRecorderDropEvents(t *testing.T) {
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, 2*1500)
	rec := NewRecorder(0) // default ring
	rec.Attach(net)
	h := &countHandler{}
	if err := c.Register(9001, h); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		a.Send(dataPkt(aAddr, cAddr, 1, 1400))
	}
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	drops := 0
	for _, e := range rec.Events() {
		if e.Kind != KindDrop {
			continue
		}
		drops++
		if e.Reason.String() == "" || e.Where() == "" {
			t.Fatalf("drop event missing reason/location: %+v", e)
		}
	}
	if drops == 0 {
		t.Fatal("64 packets into a 2-packet queue produced no recorded drops")
	}
}

// TestRecorderZeroAlloc is the netem transit gate with the flight
// recorder attached: recording an event is a ring store, so the
// observed transit must still allocate nothing.
func TestRecorderZeroAlloc(t *testing.T) {
	loop, net, a, c, aAddr, cAddr := lineNet(t, 100e6, time.Millisecond, 100*1500)
	rec := NewRecorder(0)
	rec.Attach(net)
	h := &countHandler{}
	if err := c.Register(9001, h); err != nil {
		t.Fatal(err)
	}
	p := dataPkt(aAddr, cAddr, 1, 1000)
	for i := 0; i < 64; i++ {
		a.Send(p)
	}
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	delivered := h.n
	allocs := testing.AllocsPerRun(200, func() {
		a.Send(p)
		if err := loop.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("recorded packet transit allocates %.1f objects, want 0", allocs)
	}
	if h.n <= delivered {
		t.Fatal("gate measured nothing: no packets were delivered")
	}
	if rec.Total() == 0 {
		t.Fatal("gate measured nothing: no events were recorded")
	}
}

// fakeClock steps a meter's clock deterministically.
type fakeClock struct{ now time.Time }

func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }

// newTestMeter returns a meter on a fake clock starting at a fixed
// instant.
func newTestMeter(w io.Writer, total, workers int, interval time.Duration) (*Meter, *fakeClock) {
	m := NewMeter(w, total, workers, interval)
	clock := &fakeClock{now: time.Unix(1700000000, 0).UTC()}
	m.now = func() time.Time { return clock.now }
	m.start, m.last = clock.now, clock.now
	return m, clock
}

// TestMeterHeartbeats drives a meter through a sweep on a fake clock and
// checks emission policy (first completion, interval rate limiting,
// completion, Close), the NDJSON schema, and monotone done counts.
func TestMeterHeartbeats(t *testing.T) {
	var buf bytes.Buffer
	m, clock := newTestMeter(&buf, 4, 2, time.Second)

	clock.advance(100 * time.Millisecond)
	m.Advance(false) // first completion always emits
	clock.advance(100 * time.Millisecond)
	m.Advance(true) // rate-limited: no emission
	clock.advance(1200 * time.Millisecond)
	m.Advance(false) // interval elapsed: emits
	clock.advance(100 * time.Millisecond)
	m.Advance(false) // done == total: emits
	m.Close()        // final heartbeat

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("meter emitted %d heartbeats, want 4:\n%s", len(lines), buf.String())
	}
	prevDone := 0
	for i, raw := range lines {
		var fields map[string]any
		if err := json.Unmarshal([]byte(raw), &fields); err != nil {
			t.Fatalf("heartbeat %d: %v: %s", i, err, raw)
		}
		for _, key := range []string{"t", "elapsed_s", "done", "total",
			"failed", "runs_per_s", "eta_s", "workers", "idle_ms"} {
			if _, ok := fields[key]; !ok {
				t.Fatalf("heartbeat %d lost field %q: %s", i, key, raw)
			}
		}
		var hb Heartbeat
		if err := json.Unmarshal([]byte(raw), &hb); err != nil {
			t.Fatal(err)
		}
		if _, err := time.Parse(time.RFC3339Nano, hb.T); err != nil {
			t.Fatalf("heartbeat %d: bad timestamp %q: %v", i, hb.T, err)
		}
		if hb.Done < prevDone {
			t.Fatalf("heartbeat %d: done went backwards: %d after %d", i, hb.Done, prevDone)
		}
		prevDone = hb.Done
		if hb.Total != 4 || hb.Workers != 2 {
			t.Fatalf("heartbeat %d: total=%d workers=%d, want 4/2", i, hb.Total, hb.Workers)
		}
	}
	var final Heartbeat
	if err := json.Unmarshal([]byte(lines[3]), &final); err != nil {
		t.Fatal(err)
	}
	if final.Done != 4 || final.Failed != 1 || final.EtaS == nil || *final.EtaS != 0 {
		t.Fatalf("final heartbeat done=%d failed=%d eta=%v, want 4/1/0", final.Done, final.Failed, final.EtaS)
	}
	if final.RunsPerS == nil || *final.RunsPerS <= 0 {
		t.Fatalf("final heartbeat runs/s = %v, want > 0", final.RunsPerS)
	}
}

// TestMeterZeroIntervalEmitsEveryCompletion pins the interval <= 0 mode.
func TestMeterZeroIntervalEmitsEveryCompletion(t *testing.T) {
	var buf bytes.Buffer
	m, clock := newTestMeter(&buf, 3, 1, 0)
	for i := 0; i < 3; i++ {
		clock.advance(time.Millisecond)
		m.Advance(false)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("zero-interval meter emitted %d heartbeats, want 3", lines)
	}
}

// TestRollupMerge checks sums sum, maxima max, and nil rollups (failed
// runs) are skipped.
func TestRollupMerge(t *testing.T) {
	var r Rollup
	r.Merge(nil)
	r.Merge(&Rollup{Runs: 1, EventsScheduled: 10, EventsFired: 9, Recycled: 3, HeapPeak: 5,
		TxPackets: 6, TxBytes: 9000, Offered: 7, Drops: 3,
		RTOs: 1, FastRecoveries: 2, Retransmits: 3, SchedPicks: 4})
	r.Merge(&Rollup{Runs: 1, EventsScheduled: 20, EventsFired: 20, Recycled: 5, HeapPeak: 2,
		TxPackets: 3, TxBytes: 4500, Offered: 3, SchedPicks: 6})
	want := Rollup{Runs: 2,
		EventsScheduled: 30, EventsFired: 29, Recycled: 8, HeapPeak: 5,
		TxPackets: 9, TxBytes: 13500, Offered: 10, Drops: 3,
		RTOs: 1, FastRecoveries: 2, Retransmits: 3, SchedPicks: 10}
	if r != want {
		t.Fatalf("rollup = %+v, want %+v", r, want)
	}
}

// TestDebugServer starts the debug endpoint, activates a meter, and
// checks /debug/vars serves its snapshot under sweep_progress and
// /debug/pprof/ answers.
func TestDebugServer(t *testing.T) {
	m, _ := newTestMeter(io.Discard, 3, 1, 0)
	m.Advance(false)
	m.Activate()
	addr, closeSrv, err := DebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeSrv()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, "sweep_progress") || !strings.Contains(vars, `"done":1`) {
		t.Fatalf("/debug/vars does not carry the activated meter:\n%s", vars)
	}
	if !strings.Contains(get("/debug/pprof/"), "pprof") {
		t.Fatal("/debug/pprof/ index missing")
	}

	// Re-activation swaps the served meter without a duplicate-publish
	// panic.
	m2, _ := newTestMeter(io.Discard, 5, 1, 0)
	m2.Advance(false)
	m2.Advance(false)
	m2.Activate()
	if vars := get("/debug/vars"); !strings.Contains(vars, `"done":2`) {
		t.Fatalf("/debug/vars not reading the re-activated meter:\n%s", vars)
	}
}

// TestMeterResume seeds a meter with a prior execution's progress (a
// resumed run-log) and checks heartbeats count done/failed from that
// baseline against the full total, while the ETA is built only from the
// rate this execution actually measures.
func TestMeterResume(t *testing.T) {
	var buf bytes.Buffer
	m, clock := newTestMeter(&buf, 10, 1, 0)
	m.Resume(6, 2) // 6 of 10 already on disk, 2 of them failed

	clock.advance(2 * time.Second)
	m.Advance(false)
	var first Heartbeat
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Done != 7 || first.Total != 10 || first.Failed != 2 {
		t.Fatalf("first heartbeat done/total/failed = %d/%d/%d, want 7/10/2",
			first.Done, first.Total, first.Failed)
	}
	// The EWMA must seed from this execution's first inter-completion gap
	// (2s), not blend it against a zero baseline as a done-count seed
	// would: 3 remaining runs at 2s each.
	if first.RunsPerS == nil || *first.RunsPerS != 0.5 || first.EtaS == nil || *first.EtaS != 6 {
		t.Fatalf("first heartbeat runs/s=%v eta=%v, want 0.5/6 (session-local rate)",
			first.RunsPerS, first.EtaS)
	}

	clock.advance(2 * time.Second)
	m.Advance(true)
	clock.advance(2 * time.Second)
	m.Advance(false)
	clock.advance(2 * time.Second)
	m.Advance(false)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	var final Heartbeat
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if final.Done != 10 || final.Failed != 3 || final.EtaS == nil || *final.EtaS != 0 {
		t.Fatalf("final heartbeat done/failed/eta = %d/%d/%v, want 10/3/0",
			final.Done, final.Failed, final.EtaS)
	}
	// Every gap was 2 s, so the EWMA seeded at 0.5 runs/s stays there.
	if final.RunsPerS == nil || *final.RunsPerS != 0.5 {
		t.Fatalf("final heartbeat runs/s = %v, want 0.5", final.RunsPerS)
	}
}

// TestMeterHeartbeatsValidUnderCoarseClock is the Inf/NaN regression test:
// a coarse (or fake) clock hands the meter zero-length intervals — zero
// elapsed time at the first tick, then a long run of zero gaps that decays
// the rate EWMA into denormal territory where 1/ewmaDt overflows to +Inf.
// Every heartbeat must stay independently parseable JSON with finite
// numbers: rate and ETA are omitted while unknown, never Inf/NaN (which
// json.Encode refuses, so the unclamped meter also silently dropped
// heartbeats by erroring).
func TestMeterHeartbeatsValidUnderCoarseClock(t *testing.T) {
	var buf bytes.Buffer
	m, clock := newTestMeter(&buf, 10000, 2, 0)

	// First completion with zero elapsed time: the rate is unknown.
	if err := m.Advance(false); err != nil {
		t.Fatalf("zero-elapsed Advance: %v", err)
	}
	var hb Heartbeat
	first := strings.TrimSpace(buf.String())
	if err := json.Unmarshal([]byte(first), &hb); err != nil {
		t.Fatalf("zero-elapsed heartbeat is not valid JSON: %v: %s", err, first)
	}
	if hb.RunsPerS != nil || hb.EtaS != nil {
		t.Fatalf("zero-elapsed heartbeat reports rate/eta %v/%v, want both omitted",
			hb.RunsPerS, hb.EtaS)
	}
	if hb.ElapsedS != 0 || hb.Done != 1 {
		t.Fatalf("zero-elapsed heartbeat elapsed/done = %v/%d, want 0/1", hb.ElapsedS, hb.Done)
	}

	// One real gap seeds the EWMA, then thousands of zero gaps decay it
	// through the denormal range (0.8^n underflows around n=3800), where
	// the unclamped 1/ewmaDt is +Inf.
	clock.advance(time.Second)
	for i := 0; i < 5000; i++ {
		if err := m.Advance(i%7 == 0); err != nil {
			t.Fatalf("Advance %d under a stuck clock: %v", i, err)
		}
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5001 {
		t.Fatalf("meter emitted %d heartbeats, want 5001", len(lines))
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("heartbeat %d is not valid JSON: %s", i, line)
		}
		if strings.Contains(line, "Inf") || strings.Contains(line, "NaN") {
			t.Fatalf("heartbeat %d leaks a non-finite value: %s", i, line)
		}
	}
}

// TestRecorderStoresFusedHopTimes: a fused hop reports its arrival, and a
// drop at the link it feeds, when the feeder admits the packet, ahead of
// the clock. The recorder must store the hop's own virtual time: an
// arrival one propagation delay after the frame's departure, and a drop at
// that arrival.
func TestRecorderStoresFusedHopTimes(t *testing.T) {
	g := topo.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	ab := g.AddLink(a, b, 10*unit.Mbps, time.Millisecond, 100*1500)
	bc := g.AddLink(b, c, unit.Mbps, time.Millisecond, 3*1500)
	loop := sim.NewLoop()
	tt := route.NewTagTable(g)
	net, err := netem.New(loop, g, tt)
	if err != nil {
		t.Fatal(err)
	}
	aAddr, cAddr := net.AssignAddr(a), net.AssignAddr(c)
	if err := tt.AddPath(cAddr, 1, topo.Path{Nodes: []topo.NodeID{a, b, c}, Links: []topo.LinkID{ab, bc}}); err != nil {
		t.Fatal(err)
	}
	if err := net.Node(c).Register(9001, &countHandler{}); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(0)
	rec.Attach(net)
	if n := net.Fuse(sim.End, nil); n != 1 {
		t.Fatalf("Fuse joined %d links, want b->c", n)
	}
	for i := 0; i < 8; i++ {
		net.Node(a).Send(dataPkt(aAddr, cAddr, 1, 1400))
	}
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	left := map[uint64]sim.Time{} // departure from a->b, by UID
	arrived := map[uint64]sim.Time{}
	drops := 0
	for _, e := range rec.Events() {
		switch {
		case e.Kind == KindTransmit && e.Where() == "a->b":
			left[e.UID] = e.At
		case e.Kind == KindArrive && e.Where() == "a->b":
			if want := left[e.UID].Add(time.Millisecond); e.At != want {
				t.Fatalf("uid %d arrival recorded at %v, want %v", e.UID, e.At, want)
			}
			arrived[e.UID] = e.At
		case e.Kind == KindDrop:
			drops++
			if at, ok := arrived[e.UID]; !ok || e.At != at || e.At == 0 {
				t.Fatalf("uid %d dropped at b->c recorded at %v, want its arrival at b (%v)", e.UID, e.At, at)
			}
		}
	}
	if drops == 0 || len(arrived) != 8 {
		t.Fatalf("%d arrivals over a->b and %d drops at b->c, want 8 and some", len(arrived), drops)
	}
}
