// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event loop ordered by time and, within an instant, by
// rank or scheduling sequence, cancellable timers and a seeded random source.
//
// The kernel is single-threaded by design. All model code (links, TCP
// stacks, applications) runs inside event callbacks on one goroutine, so no
// locking is needed and identical seeds reproduce identical executions
// byte-for-byte. Harness code that wants parallelism runs one Loop per
// scenario in separate goroutines.
//
// The scheduling path is allocation-free in steady state: event nodes live
// in a pooled arena recycled through a free list, and the Callback interface
// lets hot callers schedule pre-bound callback structs instead of capturing
// closures. Timer handles are values carrying a generation counter, so a
// stale handle to a recycled node is a safe no-op.
//
// The pending queue is a winner tree keyed by node id: a node's leaf holds
// its event's (at, order) key while it is pending and an idle key otherwise,
// and each inner node holds the lesser of its children, so the root is the
// next event. Every operation writes one leaf and replays its path to the
// root, up to the first level whose winner does not change: a schedule
// keys a free leaf, Timer.Stop idles one, Loop.Rearm re-keys one in place.
// A fired event's key stays in its leaf, held, until its callback's first
// schedule re-keys that leaf or the callback returns and idles it: one
// replay per event, not a pop and a push. Nothing runs ahead of its turn.
//
// Ordering contract: events run in strictly increasing (at, order) order.
// AtRanked arms a ranked event under a rank its caller gives, and every
// other schedule arms a timer, ordered by the seq the kernel issues then.
// At one instant the ranked events run first, by rank, then the timers, in
// arm order. The caller keeps at most one event pending per rank. Ranked
// events go first because they are the network's deliveries: a link arms
// its oldest frame's arrival under its link ID, so the arrivals of an
// instant run in link order, whenever the engine reached each link, and a
// timer due then — a timeout, a delayed ACK, a scripted link change — sees
// every packet delivered by its deadline.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"mptcpsim/internal/fifo"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is deliberately distinct from time.Time: simulations start
// at zero and have no wall-clock meaning.
type Time int64

// End is the largest representable virtual time.
const End Time = math.MaxInt64

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration elapsed since time 0.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats t as a duration since the simulation start.
func (t Time) String() string {
	if t == End {
		return "end"
	}
	return time.Duration(t).String()
}

// Callback is the allocation-free alternative to a func() event: model
// code embeds a small struct pre-bound to its receiver and passes a
// pointer to it, so scheduling boxes no closure and allocates nothing.
// Run is invoked with the loop's current virtual time.
type Callback interface {
	Run(now Time)
}

// node is one pooled event's callback; its key is in its leaf of the tree.
// A node is recycled the moment it fires or is stopped; gen increments on
// every recycle so stale Timer handles cannot touch the next occupant (the
// classic ABA guard).
type node struct {
	cb  Callback
	gen uint32
}

// funcCallback boxes a plain func for Schedule and At. A func value is
// pointer-shaped, so the conversion to Callback allocates nothing.
type funcCallback func()

// Run implements Callback.
func (f funcCallback) Run(Time) { f() }

// entry is one slot of the tree, 16 bytes: the full sort key — at, then the
// event's order packed above the node id — so a replay compares within the
// (pointer-free) tree instead of chasing node indices into the arena.
type entry struct {
	at     Time
	packed uint64 // order<<idBits | id
}

// idle fills the leaves of nodes with no pending event. Keys compare at as
// unsigned, and no event's at is negative, so idle sorts after every key.
var idle = entry{at: -1, packed: math.MaxUint64}

// idBits is the node-id width inside entry.packed: 16M pooled nodes (alloc
// enforces it). The 40 bits above hold the order, a class bit and then a
// rank or a seq, so for equal times comparing packed compares orders.
const idBits = 24

// timerClass is a timer's class bit: it sorts after every rank, and seqs
// stay below it (nextSeq enforces that), 2^39 arms per loop.
const timerClass = 1 << (63 - idBits)

func mkEntry(at Time, order uint64, id int32) entry {
	return entry{at: at, packed: order<<idBits | uint64(id)}
}

func (e entry) id() int32 { return int32(e.packed & (1<<idBits - 1)) }

// Timer is a cancellable handle to a scheduled event. It is a small value
// (not a pointer): creating one allocates nothing, and the zero value is
// inert — Stop and Pending on it report false. A Timer holds the node's
// generation at scheduling time, so once the event fires or is stopped the
// handle goes stale and every operation through it is a safe no-op, even
// after the node has been recycled for an unrelated event.
type Timer struct {
	loop *Loop
	id   int32
	gen  uint32
}

// Pending reports whether the timer's callback has not yet fired or been
// stopped: whether the handle's generation is still its node's. The node
// recycles (and bumps gen) exactly when its event fires or is stopped.
func (t Timer) Pending() bool {
	if t.loop == nil {
		return false
	}
	return t.loop.nodes[t.id].gen == t.gen
}

// Stop cancels the timer. It reports whether the callback was still
// pending; it returns false if the callback already ran, the timer was
// stopped, or the handle is the zero value. Stop idles the event's leaf.
func (t Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	l := t.loop
	l.pending--
	l.key(t.id, idle)
	l.release(t.id)
	return true
}

// Loop is a discrete-event loop. The zero value is not ready for use; call
// NewLoop.
type Loop struct {
	now Time
	seq uint64 // events armed so far, the next timer's seq
	// recycled counts node allocations the free list served.
	recycled uint64
	// nodes is the pooled event arena; free lists the recycled indices.
	nodes []node
	free  []int32
	// tree is the winner tree over the arena: tree[len(tree)/2+id] is node
	// id's leaf, tree[i] is the lesser of tree[2i] and tree[2i+1], and
	// tree[1] is the next event. It has a leaf for every node of the arena
	// and doubles with it. tree[0] is unused.
	tree []entry
	// pending counts the leaves that are not idle, the held one included.
	pending int
	// held is the node of the running event while its key is still in its
	// leaf — until the callback schedules something or returns — else -1.
	held    int32
	running bool
	stopped bool

	// processed counts events executed, for diagnostics and run limits.
	processed uint64
	// limit aborts runaway simulations; 0 means no limit.
	limit uint64

	// peak is the high-water mark of the pending queue, maintained
	// unconditionally (one integer compare per schedule) so Counters works
	// without a telemetry mode switch.
	peak int
}

// room is the number of pending events a new loop's arrays hold before
// they grow: the pending sets of the paper-scale runs peak below it.
const room = 32

// nodeBufs and treeBufs keep released loops' arenas and trees for NewLoop.
var (
	nodeBufs fifo.Pool[node]
	treeBufs fifo.Pool[entry]
)

// NewLoop returns an empty event loop positioned at time 0. Its arena and
// tree start on the arrays a released loop left, or on fresh ones with room
// for 32 pending events. Either way the tree starts with one leaf and
// doubles with the arena, so its depth is log2 of this loop's peak arena,
// whatever the arrays' last owner grew to.
func NewLoop() *Loop {
	return &Loop{held: -1, nodes: nodeBufs.Get(room), tree: append(treeBufs.Get(2*room), idle, idle)}
}

// Release hands l's arena and tree to the next NewLoop. Neither l nor any
// Timer of it may be used again.
func (l *Loop) Release() {
	nodeBufs.Put(l.nodes)
	treeBufs.Put(l.tree)
	l.nodes, l.tree = nil, nil
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Processed returns the number of events executed so far.
func (l *Loop) Processed() uint64 { return l.processed }

// SetEventLimit aborts Run with ErrEventLimit after n events (0 disables the
// limit). It exists to catch accidental event storms in tests.
func (l *Loop) SetEventLimit(n uint64) { l.limit = n }

// Counters is a read-only snapshot of the loop's internal accounting:
// event volume, node recycling and the high-water mark of the pending
// queue. Maintaining it costs one integer compare per scheduled event —
// there is no telemetry mode to switch on — and snapshotting allocates
// nothing.
type Counters struct {
	// Scheduled counts events armed, ranked or timers, stopped or not.
	// Fired counts events that executed.
	Scheduled uint64
	Fired     uint64
	// Recycled counts allocations served by a recycled node instead of
	// arena growth.
	Recycled uint64
	// HeapPeak is the peak number of live pending events: the queue holds
	// exactly the pending events, so it is also the occupied arena's peak.
	HeapPeak int
}

// Counters returns the loop's accounting snapshot.
func (l *Loop) Counters() Counters {
	return Counters{
		Scheduled: l.seq,
		Fired:     l.processed,
		Recycled:  l.recycled,
		HeapPeak:  l.peak,
	}
}

// ErrEventLimit is returned by Run when the configured event limit is hit.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// alloc takes a node from the free list (or grows the arena) and binds cb
// to it. Growth only happens while the simulation is still widening its
// event horizon; once the arena matches the peak number of concurrently
// pending events, scheduling never allocates again.
func (l *Loop) alloc(cb Callback) int32 {
	var id int32
	if n := len(l.free); n > 0 {
		id = l.free[n-1]
		l.free = l.free[:n-1]
		l.recycled++
	} else {
		if len(l.nodes) >= 1<<idBits {
			panic("sim: event arena overflow (16M concurrently pending events)")
		}
		if len(l.nodes) == len(l.tree)/2 {
			l.grow()
		}
		l.nodes = append(l.nodes, node{})
		id = int32(len(l.nodes) - 1)
	}
	l.nodes[id].cb = cb
	return id
}

// release recycles a stopped node whose leaf is idle: the generation bump
// invalidates every handle to the old occupant, and clearing the callback
// drops its reference. RunUntil does both to a fired node itself.
func (l *Loop) release(id int32) {
	nd := &l.nodes[id]
	nd.gen++
	nd.cb = nil
	l.free = append(l.free, id)
}

// grow doubles the tree's leaves. The old tree becomes the new one's left
// subtree, level by level from the leaves up so the copies do not overlap
// what they have yet to read, and the new right subtree is idle; the root
// keeps its winner.
func (l *Loop) grow() {
	k := len(l.tree) / 2
	l.tree = append(l.tree, make([]entry, 2*k)...)
	for w := k; w >= 1; w /= 2 {
		copy(l.tree[2*w:3*w], l.tree[w:2*w])
		for i := 3 * w; i < 4*w; i++ {
			l.tree[i] = idle
		}
	}
}

// key writes e into node id's leaf and replays the leaf's path towards the
// root, up to the first level whose winner does not change: every level
// above it has the same children as before.
func (l *Loop) key(id int32, e entry) {
	t := l.tree
	i := len(t)/2 + int(id)
	t[i] = e
	for i > 1 {
		e = lesser(e, t[i^1])
		i >>= 1
		if t[i] == e {
			return
		}
		t[i] = e
	}
}

// keyHeld writes e into the held node's leaf and replays its whole path.
// The held key is the winner of every level on that path, so every level
// changes, and the replay runs to the root without a data-dependent branch.
func (l *Loop) keyHeld(e entry) {
	t := l.tree
	i := len(t)/2 + int(l.held)
	t[i] = e
	for i > 1 {
		e = lesser(e, t[i^1])
		i >>= 1
		t[i] = e
	}
}

// before orders entries by (at, order): all ones if x sorts before y, else
// zero, the borrow out of the 128-bit subtraction x - y of the keys
// (at, packed). at is compared as unsigned, which puts idle last.
func before(x, y entry) uint64 {
	_, borrow := bits.Sub64(x.packed, y.packed, 0)
	_, borrow = bits.Sub64(uint64(x.at), uint64(y.at), borrow)
	return -borrow
}

// lesser returns the lesser of x and y, by mask rather than by branch: which
// one wins is as good as random, and a mispredicted compare costs more than
// the selection.
func lesser(x, y entry) entry {
	m := before(y, x)
	return entry{at: x.at ^ (x.at^y.at)&Time(m), packed: x.packed ^ (x.packed^y.packed)&m}
}

// Schedule runs fn after delay d of virtual time. A non-positive delay runs
// fn as soon as the loop regains control, still in deterministic order.
func (l *Loop) Schedule(d time.Duration, fn func()) Timer {
	return l.At(l.now.Add(d), fn)
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the current instant.
func (l *Loop) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	return l.schedule(t, timerClass|l.nextSeq(), funcCallback(fn))
}

// ScheduleCall runs cb.Run after delay d of virtual time. Unlike Schedule
// it takes a pre-bound Callback, so a caller that embeds its callback
// struct allocates nothing per event.
func (l *Loop) ScheduleCall(d time.Duration, cb Callback) Timer {
	return l.AtCall(l.now.Add(d), cb)
}

// AtCall runs cb.Run at absolute virtual time t, clamped like At.
func (l *Loop) AtCall(t Time, cb Callback) Timer {
	if cb == nil {
		panic("sim: AtCall called with nil callback")
	}
	return l.schedule(t, timerClass|l.nextSeq(), cb)
}

// AtRanked runs cb.Run at time t, clamped like At, as a ranked event: at
// its instant, after the ranked events of lower ranks and before every
// timer. At most one event may be pending under a rank.
func (l *Loop) AtRanked(t Time, rank uint32, cb Callback) Timer {
	if cb == nil {
		panic("sim: AtRanked called with nil callback")
	}
	l.nextSeq() // counted as an arm; the rank, not the seq, orders it
	return l.schedule(t, uint64(rank), cb)
}

// Rearm is t.Stop() followed by ScheduleCall(d, cb), for t a timer of l or
// the zero Timer. A pending t's own node and leaf take cb and the new key,
// fresh seq included, in one replay: a timer re-armed on every ACK costs no
// node recycle, and a far re-arm stops a level or two above its leaf. The
// event is a timer afterwards, whatever t was armed as.
func (l *Loop) Rearm(t Timer, d time.Duration, cb Callback) Timer {
	if !t.Pending() {
		return l.ScheduleCall(d, cb)
	}
	if cb == nil {
		panic("sim: Rearm called with nil callback")
	}
	nd := &l.nodes[t.id]
	nd.gen++
	nd.cb = cb
	l.key(t.id, mkEntry(l.now.Add(max(d, 0)), timerClass|l.nextSeq(), t.id))
	return Timer{loop: l, id: t.id, gen: nd.gen}
}

// nextSeq counts an arm and returns the count before it, a timer's seq.
func (l *Loop) nextSeq() uint64 {
	if l.seq >= timerClass {
		panic("sim: scheduling sequence overflow")
	}
	l.seq++
	return l.seq - 1
}

func (l *Loop) schedule(t Time, order uint64, cb Callback) Timer {
	if t < l.now {
		t = l.now
	}
	id := l.held
	if id >= 0 {
		// First schedule of the running event: it takes the fired event's
		// node and leaf, and one replay replaces the pop and the push.
		l.recycled++
		l.nodes[id].cb = cb
		l.keyHeld(mkEntry(t, order, id))
		l.held = -1
	} else {
		id = l.alloc(cb)
		if l.pending++; l.pending > l.peak {
			l.peak = l.pending
		}
		l.key(id, mkEntry(t, order, id))
	}
	return Timer{loop: l, id: id, gen: l.nodes[id].gen}
}

// Stop makes Run return after the currently executing event completes.
func (l *Loop) Stop() { l.stopped = true }

// Len returns the number of pending events; inside a callback the running
// event is not one of them, whether or not its key is still held.
func (l *Loop) Len() int {
	if l.held >= 0 {
		return l.pending - 1
	}
	return l.pending
}

// Run executes events in order until the queue drains, Stop is called, or
// the event limit is exceeded.
func (l *Loop) Run() error { return l.RunUntil(End) }

// RunUntil executes events with timestamps <= deadline, one replay per
// event, and then advances the clock to the deadline. It returns nil when
// the deadline is reached, the queue drains or Stop is called. The clock
// never moves backwards (a deadline in the past runs nothing and leaves the
// clock alone) and never moves past pending work: after Stop, or the error
// return at the event limit, it stays at the last executed event so a later
// run resumes in order.
func (l *Loop) RunUntil(deadline Time) error {
	if l.running {
		return errors.New("sim: RunUntil called re-entrantly")
	}
	l.running = true
	l.stopped = false
	defer func() { l.running = false }()

	for !l.stopped && l.pending > 0 {
		e := l.tree[1]
		if e.at > deadline {
			break
		}
		if e.at < l.now {
			// Tree invariant violated; this is a kernel bug, not a model bug.
			panic(fmt.Sprintf("sim: time went backwards: %v -> %v", l.now, e.at))
		}
		l.now = e.at
		// Retire the node before running: a Stop on this event's own handle
		// from inside the callback (or any later turn) sees a stale generation
		// and no-ops, even if the node is immediately reused. The key stays
		// in its leaf, held for the callback's first schedule to overwrite.
		nd := &l.nodes[e.id()]
		cb := nd.cb
		nd.gen++
		nd.cb = nil
		l.held = e.id()
		cb.Run(l.now)
		if l.held >= 0 {
			// The callback scheduled nothing: idle its leaf after all.
			l.keyHeld(idle)
			l.held = -1
			l.pending--
			l.free = append(l.free, e.id())
		}
		l.processed++
		if l.limit > 0 && l.processed >= l.limit {
			return fmt.Errorf("%w (%d events)", ErrEventLimit, l.processed)
		}
	}
	if !l.stopped && deadline != End && deadline > l.now {
		l.now = deadline
	}
	return nil
}
