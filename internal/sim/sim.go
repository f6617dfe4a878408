// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event loop ordered by (time, scheduling sequence),
// cancellable timers and a seeded random source.
//
// The kernel is single-threaded by design. All model code (links, TCP
// stacks, applications) runs inside event callbacks on one goroutine, so no
// locking is needed and identical seeds reproduce identical executions
// byte-for-byte. Harness code that wants parallelism runs one Loop per
// scenario in separate goroutines.
//
// The scheduling path is allocation-free in steady state: event nodes live
// in a pooled arena recycled through a free list, the pending queue is a
// concrete 4-ary index heap (no container/heap interface boxing), and the
// Callback interface lets hot callers schedule pre-bound callback structs
// instead of capturing closures. Timer handles are values carrying a
// generation counter, so a stale handle to a recycled node is a safe no-op.
//
// Ordering contract: events run in strictly increasing (at, seq) order,
// where seq is the scheduling sequence number the kernel issued — at
// Schedule/At/ScheduleCall/AtCall time, or earlier through ReserveSeq for an
// event armed later with AtCallReserved. A reserved event runs exactly where
// a schedule call made at reservation time would have put it, even when it
// is armed at the current instant with a seq older than events already
// popped for that instant. This is what lets a producer of FIFO-ordered
// events (a link's propagating frames) keep one heap entry instead of one
// per event without moving any event in the order.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is deliberately distinct from time.Time: simulations start
// at zero and have no wall-clock meaning.
type Time int64

// Common virtual-time constants.
const (
	// Start is the beginning of every simulation.
	Start Time = 0
	// End is the largest representable virtual time.
	End Time = math.MaxInt64
)

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration elapsed since Start.
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

// node is one pooled event. Nodes compare by (at, seq) so that events
// scheduled earlier at the same instant run first, which makes runs
// deterministic regardless of heap internals. A node is recycled through
// the free list the moment it fires or is stopped; gen increments on every
// recycle so stale Timer handles cannot touch the next occupant (the
// classic ABA guard).
type node struct {
	at  Time
	seq uint64
	cb  Callback
	gen uint32
}

// funcCallback boxes a plain func for Schedule and At. A func value is
// pointer-shaped, so the conversion to Callback allocates nothing.
type funcCallback func()

// Run implements Callback.
func (f funcCallback) Run(Time) { f() }

// entry is one pending-queue element, 16 bytes so four children of a
// 4-ary heap node share one cache line. It carries the full sort key
// inline — at, plus the scheduling seq packed above the node id — so heap
// sifts compare within the (pointer-free) heap array instead of chasing
// node indices into the arena; the comparison cache misses were the
// kernel's dominant cost. The seq doubles as the staleness check: seqs
// are never reused, so an entry whose seq no longer matches its node
// names a stopped event (the node possibly reused) and is discarded when
// it surfaces at the heap root. Lazy deletion makes Timer.Stop O(1), at
// the price of dead entries lingering until they surface or a compaction
// sweep removes them.
type entry struct {
	at     Time
	packed uint64 // seq<<idBits | id
}

// idBits is the node-id width inside entry.packed: 16M pooled nodes and
// 2^40 scheduled events per loop, both far beyond any simulation (alloc
// enforces the limits). seq occupies the high bits, so for equal times
// comparing packed compares seq — ids only differ when seqs do.
const idBits = 24

func mkEntry(at Time, seq uint64, id int32) entry {
	return entry{at: at, packed: seq<<idBits | uint64(id)}
}

func (e entry) id() int32   { return int32(e.packed & (1<<idBits - 1)) }
func (e entry) seq() uint64 { return e.packed >> idBits }

// stale reports whether e no longer names a live scheduled event.
func (e entry) stale(l *Loop) bool { return l.nodes[e.id()].seq != e.seq() }

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

// live reports whether the handle still names the scheduled event: the
// generation must match, i.e. the node was not recycled. The node recycles
// (and bumps gen) exactly when its event fires or is stopped, so a
// matching generation means the event is still pending.
func (t Timer) live() bool {
	if t.loop == nil {
		return false
	}
	return t.loop.nodes[t.id].gen == t.gen
}

// Stop cancels the timer. It reports whether the callback was still
// pending; it returns false if the callback already ran, the timer was
// stopped, or the handle is the zero value. Stop is O(1): it recycles the
// node immediately (staling the heap entry, which is dropped when it
// surfaces), so the arm/stop/re-arm cycle TCP performs on every ACK costs
// no heap restructuring.
func (t Timer) Stop() bool {
	if !t.live() {
		return false
	}
	t.loop.release(t.id)
	t.loop.dead++
	t.loop.maybeCompact()
	return true
}

// Pending reports whether the timer's callback has not yet fired or been
// stopped.
func (t Timer) Pending() bool { return t.live() }

// When returns the virtual time the timer is scheduled to fire at, or 0
// if the handle is stale.
func (t Timer) When() Time {
	if !t.live() {
		return 0
	}
	return t.loop.nodes[t.id].at
}

// Loop is a discrete-event loop. The zero value is not ready for use; call
// NewLoop.
type Loop struct {
	now Time
	seq uint64
	// unarmed counts seqs ReserveSeq issued that AtCallReserved has not
	// scheduled yet.
	unarmed uint64
	// nodes is the pooled event arena; free lists the recycled indices.
	nodes []node
	free  []int32
	// heap is a 4-ary min-heap of entries ordered by (at, seq). Entries of
	// stopped timers go stale in place and are dropped lazily; dead counts
	// them so maybeCompact can bound the garbage.
	heap []entry
	dead int
	// pending counts live scheduled events (Len), since len(heap) includes
	// stale entries.
	pending int
	// batch holds the same-instant events popped together by RunUntil so
	// they run back-to-back without interleaved heap pops.
	batch   []entry
	running bool
	stopped bool

	// processed counts events executed, for diagnostics and run limits.
	processed uint64
	// limit aborts runaway simulations; 0 means no limit.
	limit uint64

	// heapPeak and inUsePeak are high-water marks of the pending queue and
	// the occupied arena, maintained unconditionally (one integer compare
	// per schedule) so Counters works without a telemetry mode switch.
	heapPeak  int
	inUsePeak int
}

// NewLoop returns an empty event loop positioned at time Start.
func NewLoop() *Loop {
	return &Loop{}
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Processed returns the number of events executed so far.
func (l *Loop) Processed() uint64 { return l.processed }

// SetEventLimit aborts Run with ErrEventLimit after n events (0 disables the
// limit). It exists to catch accidental event storms in tests.
func (l *Loop) SetEventLimit(n uint64) { l.limit = n }

// Counters is a read-only snapshot of the loop's internal accounting:
// event volume, arena footprint and the high-water marks of the pending
// queue. Maintaining it costs two integer compares per scheduled event —
// there is no telemetry mode to switch on — and snapshotting allocates
// nothing.
type Counters struct {
	// Scheduled counts scheduling seqs ever issued: events scheduled
	// (including later-stopped timers) plus seqs reserved by ReserveSeq,
	// whether or not AtCallReserved has armed them yet. Fired counts events
	// that executed.
	Scheduled uint64
	Fired     uint64
	// ArenaNodes is the pooled arena size (nodes ever created); Recycled
	// counts allocations served by the free list instead of arena growth.
	ArenaNodes int
	Recycled   uint64
	// InUsePeak is the peak number of concurrently pending nodes, HeapPeak
	// the deepest pending queue.
	InUsePeak int
	HeapPeak  int
}

// Counters returns the loop's accounting snapshot.
func (l *Loop) Counters() Counters {
	return Counters{
		Scheduled:  l.seq,
		Fired:      l.processed,
		ArenaNodes: len(l.nodes),
		Recycled:   l.seq - l.unarmed - uint64(len(l.nodes)),
		InUsePeak:  l.inUsePeak,
		HeapPeak:   l.heapPeak,
	}
}

// ErrEventLimit is returned by Run when the configured event limit is hit.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// alloc takes a node from the free list (or grows the arena) and fills it.
// Growth only happens while the simulation is still widening its event
// horizon; once the arena matches the peak number of concurrently pending
// events, scheduling never allocates again.
func (l *Loop) alloc(at Time, seq uint64, cb Callback) int32 {
	var id int32
	if n := len(l.free); n > 0 {
		id = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		if len(l.nodes) >= 1<<idBits {
			panic("sim: event arena overflow (16M concurrently pending events)")
		}
		l.nodes = append(l.nodes, node{})
		id = int32(len(l.nodes) - 1)
	}
	nd := &l.nodes[id]
	nd.at = at
	nd.seq = seq
	nd.cb = cb
	if used := len(l.nodes) - len(l.free); used > l.inUsePeak {
		l.inUsePeak = used
	}
	return id
}

// release recycles a node: the generation bump invalidates every handle to
// the old occupant (and stales its heap entry), and clearing the callback
// drops its reference.
func (l *Loop) release(id int32) {
	nd := &l.nodes[id]
	nd.gen++
	nd.cb = nil
	// Invalidate the seq so the node's heap entry reads as stale while the
	// node sits in the free list (alloc assigns the real seq on reuse);
	// real seqs never reach this value (nextSeq guards the 2^40 ceiling).
	nd.seq = math.MaxUint64
	l.free = append(l.free, id)
	l.pending--
}

// less orders entries by (at, seq).
func less(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.packed < b.packed
}

// push inserts an entry into the heap.
func (l *Loop) push(e entry) {
	l.heap = append(l.heap, e)
	if len(l.heap) > l.heapPeak {
		l.heapPeak = len(l.heap)
	}
	l.up(len(l.heap) - 1)
}

// peek discards stale entries off the heap root until a live one surfaces,
// reporting whether any pending event remains.
func (l *Loop) peek() bool {
	for len(l.heap) > 0 {
		if !l.heap[0].stale(l) {
			return true
		}
		l.popRoot()
		l.dropDead()
	}
	return false
}

// popMin removes and returns the heap's minimum live node id. The caller
// must know the heap holds at least one live entry (peek reported true, or
// Len is non-zero).
func (l *Loop) popMin() int32 {
	for {
		e := l.heap[0]
		l.popRoot()
		if !e.stale(l) {
			return e.id()
		}
		l.dropDead()
	}
}

// dropDead notes that a stale entry left the heap. The count is clamped:
// Stop cannot tell whether the entry it stales sits in the heap or in the
// executing batch, so dead can overcount; clamping keeps the compaction
// heuristic sane (an overcount merely compacts a little early).
func (l *Loop) dropDead() {
	if l.dead > 0 {
		l.dead--
	}
}

// popRoot removes the root entry without inspecting it.
func (l *Loop) popRoot() {
	last := len(l.heap) - 1
	if last > 0 {
		l.heap[0] = l.heap[last]
	}
	l.heap = l.heap[:last]
	if last > 1 {
		l.downRoot()
	}
}

// downRoot re-sinks the leaf just promoted to the root using Floyd's
// bottom-up variant: descend the min-child path to a leaf without
// comparing against the moving element (it came from the bottom, so it
// almost always belongs back there), then sift it up to its true slot.
// This trades the classic per-level child-vs-element comparison for a
// usually-empty up phase. Heap layout can differ from the classic
// sift-down, but pop order cannot: extraction order is fixed by the
// total (at, seq) order of the contents, not by the array layout.
func (l *Loop) downRoot() {
	n := len(l.heap)
	e := l.heap[0]
	pos := 0
	for {
		first := 4*pos + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(&l.heap[c], &l.heap[best]) {
				best = c
			}
		}
		l.heap[pos] = l.heap[best]
		pos = best
	}
	for pos > 0 {
		parent := (pos - 1) / 4
		if !less(&e, &l.heap[parent]) {
			break
		}
		l.heap[pos] = l.heap[parent]
		pos = parent
	}
	l.heap[pos] = e
}

// maybeCompact rebuilds the heap without its stale entries once they
// outnumber the live ones. Filtering plus a bottom-up heapify is O(n),
// paid at most once per n stops, so Stop stays amortised O(1) and the
// array never holds more garbage than payload.
func (l *Loop) maybeCompact() {
	if l.dead*2 <= len(l.heap) || len(l.heap) < 64 {
		return
	}
	live := l.heap[:0]
	for _, e := range l.heap {
		if !e.stale(l) {
			live = append(live, e)
		}
	}
	l.heap = live
	if len(l.heap) > 1 {
		for i := (len(l.heap) - 2) / 4; i >= 0; i-- {
			l.down(i)
		}
	}
	l.dead = 0
}

// up restores the heap property from pos towards the root. The heap is
// 4-ary: shallower than a binary heap (fewer cache lines touched per
// operation on the large queues link serialisation builds), and the
// entries carry their sort keys inline, so sifts never leave the heap
// array.
func (l *Loop) up(pos int) {
	e := l.heap[pos]
	for pos > 0 {
		parent := (pos - 1) / 4
		if !less(&e, &l.heap[parent]) {
			break
		}
		l.heap[pos] = l.heap[parent]
		pos = parent
	}
	l.heap[pos] = e
}

// down restores the heap property from pos towards the leaves.
func (l *Loop) down(pos int) {
	e := l.heap[pos]
	n := len(l.heap)
	for {
		first := 4*pos + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(&l.heap[c], &l.heap[best]) {
				best = c
			}
		}
		if !less(&l.heap[best], &e) {
			break
		}
		l.heap[pos] = l.heap[best]
		pos = best
	}
	l.heap[pos] = e
}

// Schedule runs fn after delay d of virtual time. A non-positive delay runs
// fn as soon as the loop regains control, still in deterministic order.
func (l *Loop) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return l.At(l.now.Add(d), fn)
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the current instant.
func (l *Loop) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	return l.schedule(t, l.nextSeq(), funcCallback(fn))
}

// ScheduleCall runs cb.Run after delay d of virtual time. Unlike Schedule
// it takes a pre-bound Callback, so a caller that embeds its callback
// struct allocates nothing per event.
func (l *Loop) ScheduleCall(d time.Duration, cb Callback) Timer {
	if d < 0 {
		d = 0
	}
	return l.AtCall(l.now.Add(d), cb)
}

// AtCall runs cb.Run at absolute virtual time t, clamped like At.
func (l *Loop) AtCall(t Time, cb Callback) Timer {
	if cb == nil {
		panic("sim: AtCall called with nil callback")
	}
	return l.schedule(t, l.nextSeq(), cb)
}

// ReserveSeq issues the next scheduling seq without scheduling anything.
// A caller that knows an event's place in the (at, seq) order before it
// wants a heap entry for it — a link holds a FIFO of propagating frames and
// keeps only the head's arrival pending — reserves the seq at the moment it
// would have scheduled, and arms it later with AtCallReserved; the event
// then runs exactly where a Schedule call at reservation time would have
// put it.
func (l *Loop) ReserveSeq() uint64 {
	l.unarmed++
	return l.nextSeq()
}

// AtCallReserved runs cb.Run at time t under seq, which ReserveSeq issued
// and no earlier call has used. (t, seq) must sort after the event that is
// executing; t may equal the current instant, in which case the event runs
// before every pending same-instant event with a later seq.
func (l *Loop) AtCallReserved(t Time, seq uint64, cb Callback) Timer {
	if cb == nil {
		panic("sim: AtCallReserved called with nil callback")
	}
	l.unarmed--
	return l.schedule(t, seq, cb)
}

// nextSeq issues a scheduling seq.
func (l *Loop) nextSeq() uint64 {
	if l.seq >= 1<<(64-idBits) {
		panic("sim: scheduling sequence overflow")
	}
	l.seq++
	return l.seq - 1
}

func (l *Loop) schedule(t Time, seq uint64, cb Callback) Timer {
	if t < l.now {
		t = l.now
	}
	id := l.alloc(t, seq, cb)
	l.pending++
	l.push(mkEntry(t, seq, id))
	return Timer{loop: l, id: id, gen: l.nodes[id].gen}
}

// Stop makes Run return after the currently executing event completes.
func (l *Loop) Stop() { l.stopped = true }

// Len returns the number of pending events (stale stopped-timer entries
// still in the heap array are not counted).
func (l *Loop) Len() int { return l.pending }

// Run executes events in order until the queue drains, Stop is called, or
// the event limit is exceeded.
func (l *Loop) Run() error { return l.RunUntil(End) }

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to the deadline (if the deadline precedes pending work). It returns
// nil when the deadline is reached or the queue drains.
//
// Events sharing an instant are drained as a batch: every entry already
// queued for that timestamp is popped up front, then the callbacks run
// back-to-back in (at, seq) order with no heap traffic in between. The
// observable order is identical to one-at-a-time popping. An event a
// callback schedules at the current instant normally carries a later seq
// than the whole batch and simply forms the next batch; the exception is
// AtCallReserved, which can arm an older seq than members still waiting
// (batch [A#10, B#16], and A arms #14). So before each member runs it is
// compared with the heap root, and if the root sorts first the rest of the
// batch goes back into the heap and the cohort is popped afresh: strict
// (at, seq) order holds either way. A batch member stopped by an earlier
// member is skipped via the same generation check that invalidates its
// Timer handle.
func (l *Loop) RunUntil(deadline Time) error {
	if l.running {
		return errors.New("sim: RunUntil called re-entrantly")
	}
	l.running = true
	l.stopped = false
	defer func() { l.running = false }()

	for !l.stopped && l.peek() {
		at := l.heap[0].at
		if at > deadline {
			l.now = deadline
			return nil
		}
		if at < l.now {
			// Heap invariant violated; this is a kernel bug, not a model bug.
			panic(fmt.Sprintf("sim: time went backwards: %v -> %v", l.now, at))
		}
		l.now = at

		// Pop the whole same-instant cohort.
		l.batch = l.batch[:0]
		for {
			l.batch = append(l.batch, l.heap[0])
			l.popRoot()
			if !l.peek() || l.heap[0].at != at {
				break
			}
		}

		for i, e := range l.batch {
			if len(l.heap) > 0 && less(&l.heap[0], &e) {
				// An earlier member armed a reserved seq that sorts first.
				l.requeueBatch(i)
				break
			}
			if e.stale(l) {
				// Stopped by an earlier member of this batch.
				l.dead--
				continue
			}
			cb := l.nodes[e.id()].cb
			// Recycle before running: a Stop on this event's own handle from
			// inside the callback (or any later turn) sees a stale generation
			// and no-ops, even if the node is immediately reused.
			l.release(e.id())
			cb.Run(l.now)
			l.processed++
			if l.limit > 0 && l.processed >= l.limit {
				l.requeueBatch(i + 1)
				return fmt.Errorf("%w (%d events)", ErrEventLimit, l.processed)
			}
			if l.stopped {
				l.requeueBatch(i + 1)
				break
			}
		}
	}
	if deadline != End && deadline > l.now {
		l.now = deadline
	}
	return nil
}

// requeueBatch pushes the unexecuted tail of the current batch back into
// the heap when a run aborts mid-batch (Stop or the event limit). Entries
// keep their original seqs, so a later run pops them in the exact order
// they would have executed.
func (l *Loop) requeueBatch(from int) {
	for _, e := range l.batch[from:] {
		if e.stale(l) {
			l.dropDead()
			continue
		}
		l.push(e)
	}
}

// RunFor runs the loop for a span of virtual time from the current instant.
func (l *Loop) RunFor(d time.Duration) error {
	return l.RunUntil(l.now.Add(d))
}
