package mptcpsim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/route"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/telemetry"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// The paper experiment itself must satisfy every invariant, statically and
// under a failure/restore timeline.
func TestPaperRunSatisfiesInvariants(t *testing.T) {
	r, err := RunPaper(Options{ValidateInvariants: true, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Invariants) != 0 {
		t.Fatalf("paper run violates invariants: %v", r.Invariants)
	}

	nw := paperWith(t,
		ScenarioEvent{AtMs: 600, Type: EventSetRate, A: "v3", B: "v4", Mbps: 20},
		ScenarioEvent{AtMs: 800, Type: EventLinkDown, A: "s", B: "v1"},
		ScenarioEvent{AtMs: 1400, Type: EventLinkUp, A: "s", B: "v1"})
	r, err = Run(nw, Options{CC: "olia", ValidateInvariants: true, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Invariants) != 0 {
		t.Fatalf("dynamic paper run violates invariants: %v", r.Invariants)
	}
}

// The oracle must only observe: a validated run hashes identically to an
// unvalidated one.
func TestValidationDoesNotPerturbRun(t *testing.T) {
	opts := Options{CC: "olia", Duration: time.Second}
	plain, err := RunPaper(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.ValidateInvariants = true
	checked, err := RunPaper(opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Hash() != checked.Hash() {
		t.Fatal("enabling ValidateInvariants changed the run")
	}
}

// Result.Hash is the replay-determinism fingerprint: equal for identical
// runs, different as soon as anything observable differs.
func TestResultHashReplayDeterminism(t *testing.T) {
	a, err := RunPaper(Options{CC: "cubic", Duration: time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPaper(Options{CC: "cubic", Duration: time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("identical runs hash differently")
	}
	if a.LoopEvents != b.LoopEvents {
		t.Fatalf("identical runs executed %d and %d events", a.LoopEvents, b.LoopEvents)
	}
	c, err := RunPaper(Options{CC: "cubic", Duration: time.Second, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() == c.Hash() {
		t.Fatal("different seeds hash identically")
	}
	if a.LoopEvents == 0 {
		t.Fatal("LoopEvents not recorded")
	}
}

// Sweep.ValidateInvariants turns violations into per-run errors without
// flagging healthy cells.
func TestSweepValidateInvariants(t *testing.T) {
	grid := &Grid{
		CCs:        []string{"cubic", "olia"},
		DurationMs: 600,
		Events: []EventSet{
			{Name: "static"},
			{Name: "outage", Events: []ScenarioEvent{
				{AtMs: 200, Type: EventLinkDown, A: "s", B: "v1"},
				{AtMs: 400, Type: EventLinkUp, A: "s", B: "v1"},
			}},
		},
	}
	res, err := (&Sweep{Workers: 2, ValidateInvariants: true}).Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Errs(); n != 0 {
		for _, run := range res.Runs {
			if run.Err != "" {
				t.Errorf("run %d: %s", run.Index, run.Err)
			}
		}
		t.Fatalf("%d of %d self-checking sweep runs failed", n, len(res.Runs))
	}
}

// lineNet builds a -> b -> c with a tag-1 route plus reverse, and a
// payload sink at c.
func lineNet(t *testing.T, rate unit.Rate, delay time.Duration) (*sim.Loop, *netem.Network, *netem.Node, packet.Addr, packet.Addr) {
	t.Helper()
	g := topo.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	ab := g.AddLink(a, b, rate, delay, 0)
	bc := g.AddLink(b, c, rate, delay, 0)
	g.AddLink(c, b, rate, delay, 0)
	g.AddLink(b, a, rate, delay, 0)

	loop := sim.NewLoop()
	tt := route.NewTagTable(g)
	net, err := netem.New(loop, g, tt)
	if err != nil {
		t.Fatal(err)
	}
	aAddr, cAddr := net.AssignAddr(a), net.AssignAddr(c)
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
	if err := net.Node(c).Register(9001, netem.HandlerFunc(func(*packet.Packet) {})); err != nil {
		t.Fatal(err)
	}
	return loop, net, net.Node(a), aAddr, cAddr
}

func dataPkt(src, dst packet.Addr, payload int) *packet.Packet {
	return &packet.Packet{
		IP:         packet.IPv4{Tag: 1, Proto: packet.ProtoUDP, Src: src, Dst: dst},
		UDP:        &packet.UDP{SrcPort: 9000, DstPort: 9001},
		PayloadLen: payload,
	}
}

func staticEpochs(g *topo.Graph, dur time.Duration) []epochCaps {
	return buildEpochs(g, nil, dur, nil)
}

func TestOracleCleanRun(t *testing.T) {
	loop, net, src, aAddr, cAddr := lineNet(t, 10*unit.Mbps, time.Millisecond)
	o := newOracle(net, staticEpochs(net.Graph, 200*time.Millisecond))
	for i := 0; i < 50; i++ {
		loop.Schedule(time.Duration(i)*time.Millisecond, func() {
			src.Send(dataPkt(aAddr, cAddr, 1000))
		})
	}
	if err := loop.RunUntil(sim.Time(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if v := o.violations(); len(v) != 0 {
		t.Fatalf("clean run reported violations: %v", v)
	}
	if o.sentTotal != 50 || o.deliveredTotal != 50 {
		t.Fatalf("sent %d delivered %d, want 50/50", o.sentTotal, o.deliveredTotal)
	}
}

// A run cut off mid-flight must still conserve: packets in queues, on the
// wire, or mid-serialisation are the residual.
func TestOracleConservesMidFlight(t *testing.T) {
	loop, net, src, aAddr, cAddr := lineNet(t, 1*unit.Mbps, 5*time.Millisecond)
	o := newOracle(net, staticEpochs(net.Graph, 10*time.Millisecond))
	loop.Schedule(0, func() {
		for i := 0; i < 40; i++ {
			src.Send(dataPkt(aAddr, cAddr, 1000))
		}
	})
	// 40 KB at 1 Mbps takes 320 ms; stop after 10 ms with most of it
	// queued, one frame serialising and possibly one propagating.
	if err := loop.RunUntil(sim.Time(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if v := o.violations(); len(v) != 0 {
		t.Fatalf("mid-flight cutoff reported violations: %v", v)
	}
	if o.deliveredTotal == o.sentTotal {
		t.Fatal("test wants packets still in flight at the deadline")
	}
}

// SetDown drains queues and cuts the serialising frame; every drained
// packet must be accounted as a drop, keeping conservation exact.
func TestOracleConservesAcrossLinkDownDrain(t *testing.T) {
	loop, net, src, aAddr, cAddr := lineNet(t, 1*unit.Mbps, time.Millisecond)
	o := newOracle(net, staticEpochs(net.Graph, 100*time.Millisecond))
	loop.Schedule(0, func() {
		for i := 0; i < 30; i++ {
			src.Send(dataPkt(aAddr, cAddr, 1000))
		}
	})
	loop.Schedule(20*time.Millisecond, func() { net.Link(0).SetDown() })
	if err := loop.RunUntil(sim.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if v := o.violations(); len(v) != 0 {
		t.Fatalf("link_down drain reported violations: %v", v)
	}
	if o.droppedTotal == 0 {
		t.Fatal("test wants the drain to drop packets")
	}
}

func TestOracleFlagsTamperedAccounting(t *testing.T) {
	loop, net, src, aAddr, cAddr := lineNet(t, 10*unit.Mbps, time.Millisecond)
	o := newOracle(net, staticEpochs(net.Graph, 100*time.Millisecond))
	loop.Schedule(0, func() { src.Send(dataPkt(aAddr, cAddr, 1000)) })
	if err := loop.RunUntil(sim.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	o.deliveredTotal-- // simulate a lost delivery
	if v := o.violations(); len(v) == 0 {
		t.Fatal("oracle missed a conservation deficit")
	}
}

// An epoch table claiming less capacity than the link actually moved must
// trip the capacity invariant — the same check that would catch a link
// transmitting faster than its rate.
func TestOracleFlagsCapacityExcess(t *testing.T) {
	loop, net, src, aAddr, cAddr := lineNet(t, 10*unit.Mbps, time.Millisecond)
	epochs := staticEpochs(net.Graph, 100*time.Millisecond)
	for i := range epochs[0].Mbps {
		epochs[0].Mbps[i] = 0.001 // claim ~12.5 bytes of budget
	}
	o := newOracle(net, epochs)
	loop.Schedule(0, func() {
		for i := 0; i < 20; i++ {
			src.Send(dataPkt(aAddr, cAddr, 1000))
		}
	})
	if err := loop.RunUntil(sim.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if v := o.violations(); len(v) == 0 {
		t.Fatal("oracle missed a capacity excess")
	}
}

func TestOracleFlagsReordering(t *testing.T) {
	loop, net, src, aAddr, cAddr := lineNet(t, 10*unit.Mbps, time.Millisecond)
	o := newOracle(net, staticEpochs(net.Graph, 100*time.Millisecond))
	loop.Schedule(0, func() {
		src.Send(dataPkt(aAddr, cAddr, 1000))
		src.Send(dataPkt(aAddr, cAddr, 1000))
	})
	if err := loop.RunUntil(sim.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(o.fifo) != 0 {
		t.Fatalf("clean run logged fifo violations: %v", o.fifo)
	}
	// Replay an arrival out of order against the audit queue directly.
	l := net.Link(0)
	o.pending[0] = []uint64{7, 8}
	o.OnArrive(l, &packet.Packet{UID: 8})
	if len(o.fifo) == 0 {
		t.Fatal("oracle missed a reordered arrival")
	}
}

// TestFlightRecorderNamesOffendingLink is the failure-forensics
// acceptance path: a run whose invariant oracle trips (here a seeded
// capacity-budget tamper on link a->b) must leave a flight-recorder tail
// whose NDJSON events name the offending link, alongside a violation
// message naming the same link.
func TestFlightRecorderNamesOffendingLink(t *testing.T) {
	loop, net, src, aAddr, cAddr := lineNet(t, 10*unit.Mbps, time.Millisecond)
	epochs := staticEpochs(net.Graph, 100*time.Millisecond)
	for i := range epochs[0].Mbps {
		epochs[0].Mbps[i] = 0.001 // claim ~12.5 bytes of budget
	}
	o := newOracle(net, epochs)
	rec := telemetry.NewRecorder(64)
	rec.Attach(net)
	loop.Schedule(0, func() {
		for i := 0; i < 20; i++ {
			src.Send(dataPkt(aAddr, cAddr, 1000))
		}
	})
	if err := loop.RunUntil(sim.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	offender := net.Link(0).Name()
	violations := o.violations()
	if len(violations) == 0 {
		t.Fatal("tampered capacity budget tripped no invariant")
	}
	named := false
	for _, msg := range violations {
		if strings.Contains(msg, offender) {
			named = true
		}
	}
	if !named {
		t.Fatalf("no violation names link %q: %v", offender, violations)
	}

	var buf bytes.Buffer
	if err := rec.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("flight recorder retained nothing")
	}
	onLink := 0
	for i, raw := range lines {
		var e struct {
			Kind  string `json:"kind"`
			Where string `json:"where"`
		}
		if err := json.Unmarshal([]byte(raw), &e); err != nil {
			t.Fatalf("tail line %d: %v: %s", i, err, raw)
		}
		if e.Where == offender && (e.Kind == "transmit" || e.Kind == "arrive") {
			onLink++
		}
	}
	if onLink == 0 {
		t.Fatalf("flight tail never names offending link %q:\n%s", offender, buf.String())
	}
}

// epochGraph is a two-link line for buildEpochs boundary cases.
func epochGraph() *topo.Graph {
	g := topo.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddLink(a, b, 10*unit.Mbps, time.Millisecond, 0)
	g.AddLink(b, c, 20*unit.Mbps, time.Millisecond, 0)
	return g
}

func TestBuildEpochsBoundaries(t *testing.T) {
	g := epochGraph()
	const dur = 100 * time.Millisecond
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	cases := []struct {
		name   string
		starts []time.Duration
		caps   func(time.Duration) map[topo.LinkID]float64
		want   [][2]time.Duration // expected (Start, End) per epoch
	}{
		{"no starts means one whole-run epoch", nil, nil,
			[][2]time.Duration{{0, dur}}},
		{"event at t=0 does not split the first epoch",
			[]time.Duration{0}, nil,
			[][2]time.Duration{{0, dur}}},
		{"event exactly at duration closes a zero-width epoch",
			[]time.Duration{0, dur}, nil,
			[][2]time.Duration{{0, dur}, {dur, dur}}},
		{"adjacent equal timestamps yield a zero-width middle epoch",
			[]time.Duration{0, ms(50), ms(50)}, nil,
			[][2]time.Duration{{0, ms(50)}, {ms(50), ms(50)}, {ms(50), dur}}},
	}
	for _, tc := range cases {
		epochs := buildEpochs(g, tc.starts, dur, tc.caps)
		if len(epochs) != len(tc.want) {
			t.Fatalf("%s: %d epochs, want %d", tc.name, len(epochs), len(tc.want))
		}
		for i, ep := range epochs {
			if ep.Start != tc.want[i][0] || ep.End != tc.want[i][1] {
				t.Fatalf("%s: epoch %d = [%v,%v), want [%v,%v)",
					tc.name, i, ep.Start, ep.End, tc.want[i][0], tc.want[i][1])
			}
			if len(ep.Mbps) != g.NumLinks() {
				t.Fatalf("%s: epoch %d carries %d rates, want one per directed link (%d)",
					tc.name, i, len(ep.Mbps), g.NumLinks())
			}
		}
		// Epochs must tile [0, duration) without gaps: each epoch's end is
		// the next one's start.
		for i := 1; i < len(epochs); i++ {
			if epochs[i].Start != epochs[i-1].End {
				t.Fatalf("%s: gap between epoch %d and %d", tc.name, i-1, i)
			}
		}
	}
}

func TestBuildEpochsCapsOverride(t *testing.T) {
	g := epochGraph()
	const dur = 100 * time.Millisecond
	starts := []time.Duration{0, 50 * time.Millisecond}
	caps := func(start time.Duration) map[topo.LinkID]float64 {
		if start == 0 {
			return map[topo.LinkID]float64{0: 2.5} // override from t=0
		}
		return map[topo.LinkID]float64{0: 0} // link down in the second epoch
	}
	epochs := buildEpochs(g, starts, dur, caps)
	if epochs[0].Mbps[0] != 2.5 || epochs[1].Mbps[0] != 0 {
		t.Fatalf("link 0 rates = %v / %v, want 2.5 then 0", epochs[0].Mbps[0], epochs[1].Mbps[0])
	}
	// The unoverridden link keeps its graph rate in both epochs.
	if epochs[0].Mbps[1] != 20 || epochs[1].Mbps[1] != 20 {
		t.Fatalf("link 1 rates = %v / %v, want 20 in both epochs", epochs[0].Mbps[1], epochs[1].Mbps[1])
	}
}

// Links book their departures lazily, each in its own time order: a link
// nobody touches reports a departure up to one propagation delay late, after
// other links have reported later ones. Here a->b is loaded once at t=0 and
// first settles when its first frame arrives at 21 ms — eleven frames into
// the epoch that c->b's set_rate opened at 10 ms and whose departures c->b
// has been reporting since 14 ms. Every byte must land in the epoch it left
// the transmitter in, and the flight recorder must stay in time order per
// link, a frame's transmit ahead of its arrive.
func TestOracleBucketsLateSettledDeparturesByDepartureTime(t *testing.T) {
	const frame = 1250 - packet.IPv4HeaderLen - packet.UDPHeaderLen // 1 ms at 10 Mbps
	loop, net, a, aAddr, cAddr := lineNet(t, 10*unit.Mbps, 20*time.Millisecond)
	c := net.Node(2)
	if err := a.Register(9001, netem.HandlerFunc(func(*packet.Packet) {})); err != nil {
		t.Fatal(err)
	}
	ab, cb := net.Link(0), net.Link(2)
	ab.SetQueueCap(unit.MB)
	const boundary, end = 10 * time.Millisecond, 30 * time.Millisecond
	o := newOracle(net, buildEpochs(net.Graph, []time.Duration{0, boundary}, end,
		func(st time.Duration) map[topo.LinkID]float64 {
			if st == boundary {
				return map[topo.LinkID]float64{cb.Spec.ID: 5}
			}
			return nil
		}))
	rec := telemetry.NewRecorder(256)
	rec.Attach(net)

	// a->b: 28 frames leave at 1, 2, … 28 ms — 9 before the boundary.
	loop.Schedule(0, func() {
		for i := 0; i < 28; i++ {
			a.Send(dataPkt(aAddr, cAddr, frame))
		}
	})
	// c->b: halved at the boundary, then a frame every 3 ms; each admission
	// settles the frame before it.
	loop.Schedule(boundary, func() { cb.SetRate(5 * unit.Mbps) })
	for _, at := range []time.Duration{11, 14, 17} {
		loop.Schedule(at*time.Millisecond, func() { c.Send(dataPkt(cAddr, aAddr, frame)) })
	}
	if err := loop.RunUntil(sim.Time(end)); err != nil {
		t.Fatal(err)
	}
	if v := o.violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	for _, want := range []struct {
		l      *netem.Link
		ep     int
		frames float64
	}{{ab, 0, 9}, {ab, 1, 19}, {cb, 0, 0}, {cb, 1, 3}} {
		if got := o.txBytes[want.l.Spec.ID][want.ep]; got != want.frames*1250 {
			t.Errorf("link %s epoch %d: %v bytes booked, want %v frames of 1250",
				want.l.Name(), want.ep, got, want.frames)
		}
	}

	lastAt := map[string]sim.Time{}
	transmitted := map[string]map[uint64]bool{}
	sawLate := false
	for _, e := range rec.Events() {
		if e.Kind != telemetry.KindTransmit && e.Kind != telemetry.KindArrive {
			continue
		}
		w := e.Where()
		if e.At < lastAt[w] {
			t.Fatalf("flight recorder: %s of uid %d on %s at %v recorded after an event at %v", e.Kind, e.UID, w, e.At, lastAt[w])
		}
		lastAt[w] = e.At
		if e.Kind == telemetry.KindTransmit {
			if transmitted[w] == nil {
				transmitted[w] = map[uint64]bool{}
			}
			transmitted[w][e.UID] = true
			sawLate = sawLate || (w == ab.Name() && e.At < sim.Time(boundary) && lastAt[cb.Name()] > sim.Time(boundary))
		} else if !transmitted[w][e.UID] {
			t.Fatalf("flight recorder: uid %d arrives over %s before it was transmitted", e.UID, w)
		}
	}
	if !sawLate {
		t.Fatal("no a->b departure from before the boundary was recorded after a c->b one from behind it: the test no longer exercises late settling")
	}
}
