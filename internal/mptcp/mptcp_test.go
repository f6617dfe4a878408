package mptcp

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/route"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// Fixed is a DataSource that transfers exactly Total bytes, then stops.
type Fixed struct {
	// Total is the transfer size in bytes.
	Total int
	sent  int
}

// NextData implements DataSource.
func (f *Fixed) NextData(max int) int {
	left := f.Total - f.sent
	if left <= 0 {
		return 0
	}
	if max > left {
		max = left
	}
	f.sent += max
	return max
}

// paperRig wires the full paper network with an MPTCP sender at s and an
// acceptor at d.
type paperRig struct {
	loop   *sim.Loop
	net    *netem.Network
	pn     *topo.PaperNet
	sender *tcp.Host
	recvr  *tcp.Host
	acc    *Acceptor
	dials  int
}

func newPaperRig(t *testing.T, seed int64) *paperRig {
	t.Helper()
	pn := topo.Paper()
	loop := sim.NewLoop()
	tt := route.NewTagTable(pn.Graph)
	n, err := netem.New(loop, pn.Graph, tt)
	if err != nil {
		t.Fatal(err)
	}
	sh := tcp.NewHost(n, pn.S, sim.NewRand(seed))
	dh := tcp.NewHost(n, pn.D, sim.NewRand(seed+1))
	for i, p := range pn.Paths {
		tag := packet.Tag(i + 1)
		if err := tt.AddPath(dh.Addr, tag, p); err != nil {
			t.Fatal(err)
		}
		rev, err := topo.ReversePath(pn.Graph, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := tt.AddPath(sh.Addr, tag, rev); err != nil {
			t.Fatal(err)
		}
	}
	acc := &Acceptor{}
	if err := Listen(dh, 5001, tcp.Config{}, acc); err != nil {
		t.Fatal(err)
	}
	return &paperRig{loop: loop, net: n, pn: pn, sender: sh, recvr: dh, acc: acc}
}

// paperSubflows returns the three-path subflow set with Path 2 default.
func paperSubflows() []SubflowSpec {
	return []SubflowSpec{
		{Tag: 2, Label: "Path 2"},
		{Tag: 1, Label: "Path 1", StartDelay: time.Millisecond},
		{Tag: 3, Label: "Path 3", StartDelay: 2 * time.Millisecond},
	}
}

func (r *paperRig) dial(t *testing.T, cfg Config) *Conn {
	t.Helper()
	// Each connection gets a distinct key stream, like distinct processes.
	r.dials++
	c, err := Dial(r.sender, sim.NewRand(99+int64(r.dials)), cfg, r.recvr.Addr, 5001)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (r *paperRig) recvConn(t *testing.T) *RecvConn {
	t.Helper()
	if len(r.acc.Conns()) == 0 {
		t.Fatal("no connection accepted")
	}
	return r.acc.Conns()[0]
}

func TestTokenFromKeyDeterministic(t *testing.T) {
	if TokenFromKey(42) != TokenFromKey(42) {
		t.Fatal("token not deterministic")
	}
	if TokenFromKey(1) == TokenFromKey(2) {
		t.Fatal("token collision on trivial keys")
	}
}

func TestSubflowsEstablishWithJoinOptions(t *testing.T) {
	r := newPaperRig(t, 7)
	c := r.dial(t, Config{Algorithm: "cubic", Subflows: paperSubflows()})
	if err := r.loop.RunUntil(r.loop.Now().Add(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for i, sf := range c.Subflows() {
		if sf.TCP == nil || sf.TCP.State() != tcp.StateEstablished {
			t.Fatalf("subflow %d not established", i)
		}
	}
	rc := r.recvConn(t)
	if rc.subflows != 3 {
		t.Fatalf("receiver saw %d subflows, want 3", rc.subflows)
	}
	// All subflows of one connection share the token.
	if len(r.acc.Conns()) != 1 {
		t.Fatalf("%d connections accepted, want 1", len(r.acc.Conns()))
	}
}

func TestBulkTransferAggregatesPaths(t *testing.T) {
	r := newPaperRig(t, 11)
	c := r.dial(t, Config{Algorithm: "cubic", Subflows: paperSubflows()})
	const dur = 3 * time.Second
	if err := r.loop.RunUntil(r.loop.Now().Add(dur)); err != nil {
		t.Fatal(err)
	}
	rc := r.recvConn(t)
	mbps := float64(rc.Delivered) * 8 / dur.Seconds() / 1e6
	// Any single path is capped at 40 (Path 1 and 2) or 60 (Path 3); an
	// aggregate beyond 60 proves multi-path striping works.
	if mbps < 60 {
		t.Fatalf("aggregate goodput = %.1f Mbps, want > 60 (single-path cap)", mbps)
	}
	// The data stream must be delivered without data-level holes.
	if rc.Delivered != rc.DataAck() {
		t.Fatalf("delivered %d != dataack %d", rc.Delivered, rc.DataAck())
	}
	for i, sf := range c.Subflows() {
		if sf.assigned == 0 {
			t.Fatalf("subflow %d carried no data", i)
		}
	}
}

func TestLimitedSourceCompletesExactly(t *testing.T) {
	r := newPaperRig(t, 13)
	src := &Fixed{Total: 2 * 1024 * 1024}
	r.dial(t, Config{Algorithm: "lia", Subflows: paperSubflows(), Source: src})
	if err := r.loop.RunUntil(r.loop.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	rc := r.recvConn(t)
	if rc.Delivered != 2*1024*1024 {
		t.Fatalf("delivered %d, want %d", rc.Delivered, 2*1024*1024)
	}
	if rc.DupBytes != 0 {
		t.Fatalf("dup bytes = %d, want 0 without redundant scheduler", rc.DupBytes)
	}
}

func TestFixedExhausts(t *testing.T) {
	f := &Fixed{Total: 3000}
	got := 0
	for {
		n := f.NextData(1400)
		if n == 0 {
			break
		}
		got += n
	}
	if got != 3000 {
		t.Fatalf("handed out %d, want 3000", got)
	}
	if f.sent != 3000 {
		t.Fatalf("sent = %d, want 3000", f.sent)
	}
	if f.NextData(1) != 0 {
		t.Fatal("exhausted source returned data")
	}
}

func TestCoupledAlgorithmSharedAcrossSubflows(t *testing.T) {
	r := newPaperRig(t, 17)
	c := r.dial(t, Config{Algorithm: "olia", Subflows: paperSubflows()})
	if err := r.loop.RunUntil(r.loop.Now().Add(500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	// Windows evolve: each subflow's Flow is distinct but shares coupling.
	w := map[float64]bool{}
	for _, sf := range c.Subflows() {
		w[sf.TCP.CwndBytes()] = true
		if sf.TCP.CwndBytes() <= 0 {
			t.Fatal("zero cwnd on established subflow")
		}
	}
	_ = w
}

func TestRedundantSchedulerDuplicates(t *testing.T) {
	r := newPaperRig(t, 19)
	src := &Fixed{Total: 256 * 1024}
	r.dial(t, Config{Algorithm: "cubic", Scheduler: "redundant",
		Subflows: paperSubflows(), Source: src})
	if err := r.loop.RunUntil(r.loop.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	rc := r.recvConn(t)
	if rc.Delivered != 256*1024 {
		t.Fatalf("delivered %d, want exactly %d (deduplicated)", rc.Delivered, 256*1024)
	}
	if rc.DupBytes == 0 {
		t.Fatal("redundant scheduler produced no duplicates?")
	}
}

func TestSchedulerRegistry(t *testing.T) {
	for name, want := range map[string]string{
		"": "minrtt", "minrtt": "minrtt", "default": "minrtt", "MinRTT": "minrtt",
		"rr": "roundrobin", "roundrobin": "roundrobin", "RoundRobin": "roundrobin",
		"redundant": "redundant", "REDUNDANT": "redundant",
	} {
		s, err := NewScheduler(name)
		if err != nil {
			t.Fatalf("NewScheduler(%q): %v", name, err)
		}
		if s.Name() != want {
			t.Errorf("NewScheduler(%q).Name() = %q, want %q", name, s.Name(), want)
		}
		if s.redundant != (want == "redundant") {
			t.Errorf("NewScheduler(%q) redundant = %v", name, s.redundant)
		}
	}
	if s, err := NewScheduler("blast"); err == nil {
		t.Fatalf("unknown scheduler accepted as %q", s.Name())
	}
	if _, err := Dial(nil, nil, Config{}, 0, 0); err == nil {
		t.Fatal("Dial with no subflows accepted")
	}
}

// Property: the data-level reassembly delivers every byte exactly once for
// arbitrary interleavings and duplications of chunks.
func TestQuickReassemblyExactlyOnce(t *testing.T) {
	f := func(seed int64, nChunks uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rc := &RecvConn{}
		n := int(nChunks%40) + 1
		// Build a contiguous stream of chunks, then shuffle with repeats.
		type ch struct {
			dsn uint64
			n   int
		}
		var chunks []ch
		var dsn uint64
		for i := 0; i < n; i++ {
			sz := 1 + rng.Intn(3000)
			chunks = append(chunks, ch{dsn, sz})
			dsn += uint64(sz)
		}
		seq := append([]ch(nil), chunks...)
		// Duplicate a random subset.
		for i := 0; i < n/2; i++ {
			seq = append(seq, chunks[rng.Intn(len(chunks))])
		}
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		for _, c := range seq {
			rc.push(c.n, c.dsn, true)
		}
		return rc.Delivered == dsn && rc.DataAck() == dsn && rc.ooo.len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDataAckAdvertisedToSender(t *testing.T) {
	r := newPaperRig(t, 29)
	src := &Fixed{Total: 64 * 1024}
	r.dial(t, Config{Algorithm: "reno", Subflows: paperSubflows(), Source: src})
	if err := r.loop.RunUntil(r.loop.Now().Add(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	rc := r.recvConn(t)
	if rc.DataAck() != 64*1024 {
		t.Fatalf("final data ack = %d, want %d", rc.DataAck(), 64*1024)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() uint64 {
		r := newPaperRig(t, 31)
		r.dial(t, Config{Algorithm: "cubic", Subflows: paperSubflows()})
		if err := r.loop.RunUntil(r.loop.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		return r.recvConn(t).Delivered
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs differ: %d vs %d", a, b)
	}
}

func TestSingleSubflowBehavesLikeTCP(t *testing.T) {
	r := newPaperRig(t, 37)
	c := r.dial(t, Config{Algorithm: "lia",
		Subflows: []SubflowSpec{{Tag: 2, Label: "Path 2"}}})
	if err := r.loop.RunUntil(r.loop.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	rc := r.recvConn(t)
	mbps := float64(rc.Delivered) * 8 / 2 / 1e6
	// Path 2's bottleneck is 40 Mbps; a lone LIA subflow is plain NewReno
	// and should utilise most of it.
	if mbps < 30 || mbps > 40 {
		t.Fatalf("single-subflow goodput = %.1f Mbps, want ~35-38", mbps)
	}
	if got := c.Subflows()[0].assigned; got != c.AssignedBytes() {
		t.Fatalf("assigned accounting inconsistent: %d vs %d", got, c.AssignedBytes())
	}
}

func TestUnit(t *testing.T) {
	// Guard against accidental unit drift in helpers used above.
	if unit.Mbps != 1000*1000 {
		t.Fatal("unit definitions changed")
	}
}

func TestAcceptorSeparatesConnections(t *testing.T) {
	r := newPaperRig(t, 47)
	c1 := r.dial(t, Config{Algorithm: "cubic", Subflows: paperSubflows()})
	c2 := r.dial(t, Config{Algorithm: "lia", Subflows: paperSubflows()})
	if err := r.loop.RunUntil(r.loop.Now().Add(500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(r.acc.Conns()) != 2 {
		t.Fatalf("acceptor tracked %d connections, want 2", len(r.acc.Conns()))
	}
	if c1.Token == c2.Token {
		t.Fatal("token collision between connections")
	}
	// Connections are listed in arrival order under their senders' tokens.
	for i, c := range []*Conn{c1, c2} {
		rc := r.acc.Conns()[i]
		if rc.Token != c.Token {
			t.Fatalf("connection %d has token %#x, want %#x", i, rc.Token, c.Token)
		}
		if rc.subflows != 3 {
			t.Fatalf("connection %#x attached %d subflows, want 3", rc.Token, rc.subflows)
		}
		if rc.Delivered == 0 {
			t.Fatalf("connection %#x delivered nothing", rc.Token)
		}
	}
}

// The acceptor's table, driven directly with SYN options: MP_CAPABLE opens
// a connection under its key's token, an MP_JOIN carrying that token
// attaches to it, and a join with a token nobody opened gets its own.
func TestAcceptorMatchByToken(t *testing.T) {
	a := &Acceptor{}
	const key = 0xfeedface
	first := a.match([]packet.Option{&packet.MPCapable{Key: key}})
	if first.Token != TokenFromKey(key) {
		t.Fatalf("token %#x, want %#x", first.Token, TokenFromKey(key))
	}
	if got := a.match([]packet.Option{&packet.MPJoin{Token: first.Token, AddrID: 1}}); got != first {
		t.Fatal("MP_JOIN with the first subflow's token opened another connection")
	}
	stray := a.match([]packet.Option{&packet.MPJoin{Token: first.Token + 1, AddrID: 1}})
	if stray == first || stray.Token != first.Token+1 {
		t.Fatalf("unknown token attached to %#x", stray.Token)
	}
	if got := a.match([]packet.Option{&packet.MPJoin{Token: first.Token, AddrID: 2}}); got != first {
		t.Fatal("a later connection shadowed the first one's token")
	}
	if first.subflows != 3 || stray.subflows != 1 {
		t.Fatalf("subflow counts %d and %d, want 3 and 1", first.subflows, stray.subflows)
	}
	if c := a.Conns(); len(c) != 2 || c[0] != first || c[1] != stray {
		t.Fatalf("Conns() = %v, want the two connections in arrival order", c)
	}
}
