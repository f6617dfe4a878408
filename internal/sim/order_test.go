package sim

// Ordering tests: the observable execution order must be exactly the
// reference kernel's — strict (at, order) order, one pop, one callback,
// repeat — across dense timestamp collisions, stops of later same-instant
// events, re-arms of pending, fired and stopped timers, ranked events armed
// ahead of the running event, and runs interrupted within an instant (Stop /
// event limit). The kernel runs an event with its key still held in its
// leaf; the reference pops first.

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// refKernel is the reference: a sorted list popped strictly one event at a
// time, in (at, ranked events by rank, then timers by seq) order, with a
// stopped flag checked at pop — the semantics the kernel must be
// indistinguishable from.
type refKernel struct {
	events []*refKernelEv
	seq    uint64
	now    Time
}

// refKernelEv is a ranked event (ord is its rank) or a timer (ord is its
// seq).
type refKernelEv struct {
	at      Time
	ranked  bool
	ord     uint64
	label   int64
	stopped bool
}

// after reports whether a sorts after e.
func (a *refKernelEv) after(e *refKernelEv) bool {
	switch {
	case a.at != e.at:
		return a.at > e.at
	case a.ranked != e.ranked:
		return e.ranked
	}
	return a.ord > e.ord
}

func (k *refKernel) schedule(d time.Duration, label int64) *refKernelEv {
	k.seq++
	return k.insert(&refKernelEv{at: k.now.Add(d), ord: k.seq, label: label})
}

func (k *refKernel) scheduleRanked(d time.Duration, rank uint32, label int64) *refKernelEv {
	return k.insert(&refKernelEv{at: k.now.Add(d), ranked: true, ord: uint64(rank), label: label})
}

func (k *refKernel) insert(e *refKernelEv) *refKernelEv {
	i := sort.Search(len(k.events), func(i int) bool { return k.events[i].after(e) })
	k.events = append(k.events, nil)
	copy(k.events[i+1:], k.events[i:])
	k.events[i] = e
	return e
}

// pop returns the next live event due by deadline, or nil.
func (k *refKernel) pop(deadline Time) *refKernelEv {
	for len(k.events) > 0 {
		e := k.events[0]
		if e.stopped {
			k.events = k.events[1:]
			continue
		}
		if e.at > deadline {
			return nil
		}
		k.events = k.events[1:]
		k.now = e.at
		return e
	}
	return nil
}

// pending counts the events still due to run.
func (k *refKernel) pending() int {
	n := 0
	for _, e := range k.events {
		if !e.stopped {
			n++
		}
	}
	return n
}

// checkTree walks the whole tree, a held leaf included: every inner node is
// the lesser of its children; a pending or held node's leaf holds its key, a
// free node's leaf (or a leaf past the arena) is idle; and pending counts the
// leaves that are not idle. The fuzz target runs it around every handler,
// so it allocates only a bitset of the free ids and marks itself a helper
// only when it fails.
func checkTree(t *testing.T, l *Loop) {
	if err := treeErr(l); err != "" {
		t.Helper()
		t.Fatal(err)
	}
}

func treeErr(l *Loop) string {
	k := len(l.tree) / 2
	if k&(k-1) != 0 || k < len(l.nodes) {
		return fmt.Sprintf("tree has %d leaves for an arena of %d nodes, want a power of two covering it", k, len(l.nodes))
	}
	for i := 1; i < k; i++ {
		if l.tree[i] != lesser(l.tree[2*i], l.tree[2*i+1]) {
			return fmt.Sprintf("tree node %d is not the lesser of its children", i)
		}
	}
	free := make([]uint64, (k+63)/64)
	for _, id := range l.free {
		free[id/64] |= 1 << (id % 64)
	}
	n := 0
	for id := range int32(k) {
		switch leaf := l.tree[k+int(id)]; {
		case int(id) >= len(l.nodes) || free[id/64]&(1<<(id%64)) != 0:
			if leaf != idle {
				return fmt.Sprintf("free node %d's leaf holds a key", id)
			}
			if int(id) < len(l.nodes) && l.nodes[id].cb != nil {
				return fmt.Sprintf("free node %d holds a callback", id)
			}
		case leaf == idle || leaf.id() != id:
			return fmt.Sprintf("pending node %d's leaf holds %+v, not its key", id, leaf)
		case (id == l.held) != (l.nodes[id].cb == nil):
			return fmt.Sprintf("node %d: held=%v but callback nil=%v", id, id == l.held, l.nodes[id].cb == nil)
		default:
			n++
		}
	}
	if n != l.pending {
		return fmt.Sprintf("pending = %d, but %d leaves hold a key", l.pending, n)
	}
	return ""
}

// fired is one observed execution, comparable across kernels.
type fired struct {
	label int64
	at    Time
}

// step is one execution of the program: what ran and when, and how many
// events were pending as its handler began and ended.
type step struct {
	fired
	lenBegin, lenEnd int
}

// program derives each event's behaviour purely from (seed, label), so
// the real loop and the reference interpreter take identical decisions:
// spawn 0-2 children at delay 0-2 ns (delay 0 collides with the current
// instant), sometimes stop an earlier-created event — before the first
// schedule or after the last — sometimes re-arm one, or the running event's
// own handle, at delay 0-2 ns (or, half the time under a reach, anywhere
// below it), before the first schedule (while the fired event's key is
// held) or after the last, and sometimes arm a ranked event under one of
// four ranks at delay 0-2 ns before scheduling anything else.
type program struct {
	seed  int64
	reach int
}

type progActions struct {
	childDelays []time.Duration
	stopLabel   int64 // -1: none
	stopFirst   bool
	rank        int // -1: arm no ranked event
	rankDelay   time.Duration
	rearmLabel  int64 // -1: none
	rearmDelay  time.Duration
	rearmFirst  bool
}

func (p *program) actions(label int64) progActions {
	rng := rand.New(rand.NewSource(p.seed*1000003 + label))
	a := progActions{stopLabel: -1}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		a.childDelays = append(a.childDelays, time.Duration(rng.Intn(3)))
	}
	if rng.Intn(3) == 0 && label > 0 {
		a.stopLabel = rng.Int63n(label)
	}
	a.stopFirst = rng.Intn(2) == 0
	a.rank = -1
	if rng.Intn(3) == 0 {
		a.rank, a.rankDelay = rng.Intn(4), time.Duration(rng.Intn(3))
	}
	a.rearmLabel = -1
	switch r := rng.Intn(6); {
	case r == 0:
		a.rearmLabel = label
	case r < 3 && label > 0:
		a.rearmLabel = rng.Int63n(label)
	}
	a.rearmDelay = time.Duration(rng.Intn(3))
	a.rearmFirst = rng.Intn(2) == 0
	if p.reach > 0 && rng.Intn(2) == 0 {
		a.rearmDelay = time.Duration(rng.Intn(p.reach))
	}
	return a
}

// progKernel is what the program needs of a kernel; events are named by
// label. spawn schedules a timer and arm a ranked event; rearm is a Stop of
// one label and a schedule of another, in one call; runUntil runs every
// event due by deadline through the program's handler, then moves the
// clock as RunUntil does.
type progKernel interface {
	spawn(d time.Duration, label int64)
	arm(rank uint32, d time.Duration, label int64)
	rearm(old int64, d time.Duration, label int64)
	stop(label int64)
	pending() int
	now() Time
	runUntil(deadline Time)
}

// progRun is the state of one interpretation of a program: actions gives
// the behaviour of the handler of each event.
type progRun struct {
	actions   func(label int64) progActions
	k         progKernel
	budget    int
	nextLabel int64
	// ranked names the last event armed under each rank. Arming a rank
	// stops it first, as a link stops its pending arrival before arming it
	// again, so no rank has two events pending.
	ranked map[int]int64
	log    []step
}

func (r *progRun) newLabel() int64 {
	r.nextLabel++
	return r.nextLabel - 1
}

// handle runs the program's handler for the event label, which fired at at.
func (r *progRun) handle(label int64, at Time) {
	rec := step{fired: fired{label, at}, lenBegin: r.k.pending()}
	a := r.actions(label)
	rearm := func() {
		if a.rearmLabel >= 0 && r.budget > 0 {
			r.budget--
			r.k.rearm(a.rearmLabel, a.rearmDelay, r.newLabel())
		}
	}
	if a.rearmFirst {
		rearm()
	}
	if a.stopFirst && a.stopLabel >= 0 {
		r.k.stop(a.stopLabel)
	}
	if a.rank >= 0 && r.budget > 0 {
		r.budget--
		if old, ok := r.ranked[a.rank]; ok {
			r.k.stop(old)
		}
		if r.ranked == nil {
			r.ranked = make(map[int]int64)
		}
		r.ranked[a.rank] = r.newLabel()
		r.k.arm(uint32(a.rank), a.rankDelay, r.ranked[a.rank])
	}
	for _, d := range a.childDelays {
		if r.budget <= 0 {
			break
		}
		r.budget--
		r.k.spawn(d, r.newLabel())
	}
	if !a.stopFirst && a.stopLabel >= 0 {
		r.k.stop(a.stopLabel)
	}
	if !a.rearmFirst {
		rearm()
	}
	rec.lenEnd = r.k.pending()
	r.log = append(r.log, rec)
}

// heldCases counts how often the program reached the held leaf's cases:
// a Stop with the fired key held, a first schedule that sorts before the
// running event, an event that scheduled nothing, a Rearm of a pending
// timer with the fired key held, and a Rearm of the running event's own
// handle that took the held leaf. moves counts the Rearms of a pending
// timer to an earlier instant, its own and a later one, and dead the
// Rearms of a fired or stopped handle, held key or not.
type heldCases struct {
	stops, olderFirst, idle, rearms, selfRearms int
	moves                                       [3]int
	dead                                        int
}

// loopKernel drives the real Loop, checking the tree around every handler.
type loopKernel struct {
	t      *testing.T
	l      *Loop
	run    *progRun
	timers map[int64]Timer
	cur    entry // key of the running event
	curLbl int64 // label of the running event
	cases  *heldCases
}

func (k *loopKernel) callback(label int64) funcCallback {
	return func() {
		checkTree(k.t, k.l)
		k.cur, k.curLbl = k.l.tree[len(k.l.tree)/2+int(k.l.held)], label
		k.run.handle(label, k.l.Now())
		if k.l.held >= 0 {
			k.cases.idle++
		}
		checkTree(k.t, k.l)
	}
}

func (k *loopKernel) spawn(d time.Duration, label int64) {
	k.timers[label] = k.l.ScheduleCall(d, k.callback(label))
}

func (k *loopKernel) arm(rank uint32, d time.Duration, label int64) {
	at := k.l.Now().Add(d)
	if k.l.held >= 0 && at == k.cur.at && uint64(rank) < k.cur.packed>>idBits {
		k.cases.olderFirst++
	}
	k.timers[label] = k.l.AtRanked(at, rank, k.callback(label))
}

func (k *loopKernel) rearm(old int64, d time.Duration, label int64) {
	tm := k.timers[old]
	switch {
	case k.l.held < 0:
	case tm.Pending():
		k.cases.rearms++
	case old == k.curLbl:
		k.cases.selfRearms++
	}
	if tm.Pending() {
		at := k.l.tree[len(k.l.tree)/2+int(tm.id)].at
		k.cases.moves[1+cmp.Compare(k.l.Now().Add(d), at)]++
	} else {
		k.cases.dead++
	}
	k.timers[label] = k.l.Rearm(tm, d, k.callback(label))
	checkTree(k.t, k.l)
}

func (k *loopKernel) stop(label int64) {
	if k.timers[label].Stop() && k.l.held >= 0 {
		k.cases.stops++
	}
}

func (k *loopKernel) pending() int { return k.l.Len() }

func (k *loopKernel) now() Time { return k.l.Now() }

func (k *loopKernel) runUntil(deadline Time) {
	if err := k.l.RunUntil(deadline); err != nil {
		k.t.Fatal(err)
	}
}

// refProgKernel drives the reference.
type refProgKernel struct {
	ref    *refKernel
	run    *progRun
	events map[int64]*refKernelEv
}

func (k *refProgKernel) spawn(d time.Duration, label int64) {
	k.events[label] = k.ref.schedule(d, label)
}

func (k *refProgKernel) arm(rank uint32, d time.Duration, label int64) {
	k.events[label] = k.ref.scheduleRanked(d, rank, label)
}

func (k *refProgKernel) rearm(old int64, d time.Duration, label int64) {
	k.stop(old)
	k.spawn(d, label)
}

func (k *refProgKernel) stop(label int64) {
	if e, ok := k.events[label]; ok {
		e.stopped = true
	}
}

func (k *refProgKernel) pending() int { return k.ref.pending() }

func (k *refProgKernel) now() Time { return k.ref.now }

func (k *refProgKernel) runUntil(deadline Time) {
	for e := k.ref.pop(deadline); e != nil; e = k.ref.pop(deadline) {
		k.run.handle(e.label, e.at)
	}
	if deadline != End && deadline > k.ref.now {
		k.ref.now = deadline
	}
}

// spread is how the programs of a reference run lay out: seeds programs,
// each with roots events at instants below at ns, re-armed up to reach ns
// ahead (0: as far as children go).
type spread struct{ seeds, roots, at, reach int }

var (
	// collisions piles the roots onto four instants: heavy same-instant ties.
	collisions = spread{seeds: 15, roots: 40, at: 4}
	// wide spreads the roots over 0-1000 ns and lets a re-arm reach as far,
	// so hundreds of events are pending, in a tree of 512 leaves, and a
	// re-arm moves a pending timer earlier, later or to its own instant.
	wide = spread{seeds: 5, roots: 400, at: 1000, reach: 1000}
)

// TestOrderMatchesReferenceKernel runs the same randomized program — roots
// piled onto a handful of timestamps or spread wide, handlers spawning
// same-instant children, stopping earlier events, re-arming pending, fired
// and stopped timers and arming ranked events — through the kernel and the
// reference, and requires the full (label, time, pending count) execution
// sequences to be identical.
func TestOrderMatchesReferenceKernel(t *testing.T) {
	for _, sp := range []spread{collisions, wide} {
		var cases heldCases
		for seed := range int64(sp.seeds) {
			matchReference(t, NewLoop(), seed, sp, &cases)
		}
		if cases.stops == 0 || cases.olderFirst == 0 || cases.idle == 0 || cases.rearms == 0 || cases.selfRearms == 0 {
			t.Fatalf("%+v: program never reached a held-leaf case: %+v", sp, cases)
		}
		if sp.reach > 0 && (slices.Contains(cases.moves[:], 0) || cases.dead == 0) {
			t.Fatalf("%+v: program never re-armed a timer earlier, to its own instant, later or dead: %+v", sp, cases)
		}
	}
}

// matchReference runs seed's program under sp on l, an empty loop at time
// 0, and on the reference, and fails unless the two execution sequences are
// identical.
func matchReference(t *testing.T, l *Loop, seed int64, sp spread, cases *heldCases) {
	t.Helper()
	prog := &program{seed: seed, reach: sp.reach}
	rootRng := rand.New(rand.NewSource(seed))
	rootTimes := make([]time.Duration, sp.roots)
	for i := range rootTimes {
		rootTimes[i] = time.Duration(rootRng.Intn(sp.at))
	}

	// Real kernel.
	lk := &loopKernel{t: t, l: l, timers: make(map[int64]Timer), cases: cases}
	got := &progRun{actions: prog.actions, k: lk, budget: 3000}
	lk.run = got
	for _, d := range rootTimes {
		lk.spawn(d, got.newLabel())
	}
	lk.runUntil(End)
	checkTree(t, l)

	// Reference, same program.
	rk := &refProgKernel{ref: &refKernel{}, events: make(map[int64]*refKernelEv)}
	want := &progRun{actions: prog.actions, k: rk, budget: 3000}
	rk.run = want
	for _, d := range rootTimes {
		rk.spawn(d, want.newLabel())
	}
	rk.runUntil(End)

	if len(got.log) != len(want.log) {
		t.Fatalf("seed %d: kernel fired %d events, reference %d",
			seed, len(got.log), len(want.log))
	}
	for i := range got.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("seed %d: execution diverged at step %d: kernel %+v, reference %+v",
				seed, i, got.log[i], want.log[i])
		}
	}
	if got, want := l.Processed(), uint64(len(want.log)); got != want {
		t.Fatalf("seed %d: Processed()=%d, want %d (hashes fold the event count)", seed, got, want)
	}
	if l.Len() != 0 || l.held >= 0 {
		t.Fatalf("seed %d: drained loop has Len()=%d held=%d", seed, l.Len(), l.held)
	}
}

// TestEqualTimestampStress piles thousands of events onto a single
// instant: timers that each spawn a same-instant child up to a cap, ranked
// chains armed in reverse rank order that each re-arm their rank at the
// current instant, and every hundredth root timer arming a ranked event of
// its own. Everything at t=1ms must run in the contract's order — the
// chains first, rank by rank, then the timers in scheduling order, each
// timer's ranked event right after it — and the whole cascade stays at one
// timestamp.
func TestEqualTimestampStress(t *testing.T) {
	l := NewLoop()
	const (
		roots    = 2000
		spawnCap = 5000
		chains   = 8
		links    = 50 // events per ranked chain
	)
	at := Time(time.Millisecond)
	var order []int
	check := func(id int) {
		order = append(order, id)
		if l.Now() != at {
			t.Fatalf("event %d ran at %v, want 1ms", id, l.Now())
		}
	}
	n := 0
	var spawn func(id int) func()
	spawn = func(id int) func() {
		return func() {
			check(id)
			if n < spawnCap {
				n++
				l.Schedule(0, spawn(roots+n))
			}
			if id < roots && id%100 == 0 {
				// Ranked ids are negative: -1 - rank*links - step.
				rank := chains + id/100
				l.AtRanked(at, uint32(rank), funcCallback(func() { check(-1 - rank*links) }))
			}
		}
	}
	var chain func(rank, step int) funcCallback
	chain = func(rank, step int) funcCallback {
		return func() {
			check(-1 - rank*links - step)
			if step+1 < links {
				l.AtRanked(at, uint32(rank), chain(rank, step+1))
			}
		}
	}
	for i := 0; i < roots; i++ {
		l.At(at, spawn(i))
		if i < chains {
			l.AtRanked(at, uint32(chains-1-i), chain(chains-1-i, 0))
		}
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	var want []int
	for rank := range chains {
		for step := range links {
			want = append(want, -1-rank*links-step)
		}
	}
	for i := 0; i < roots; i++ {
		want = append(want, i)
		if i%100 == 0 {
			want = append(want, -1-(chains+i/100)*links)
		}
	}
	for kid := roots + 1; kid <= roots+spawnCap; kid++ {
		want = append(want, kid)
	}
	if !slices.Equal(order, want) {
		for i := range min(len(order), len(want)) {
			if order[i] != want[i] {
				t.Fatalf("position %d ran event %d, want %d (%d events ran, want %d)", i, order[i], want[i], len(order), len(want))
			}
		}
		t.Fatalf("%d events ran, want %d", len(order), len(want))
	}
}

// TestStopLaterSameInstantEvent: an event stops a later event due at the
// same instant — it must not run or count, and a same-instant event
// scheduled meanwhile must still run, after the survivors.
func TestStopLaterSameInstantEvent(t *testing.T) {
	l := NewLoop()
	var order []string
	var tmC Timer
	l.Schedule(time.Millisecond, func() {
		order = append(order, "a")
		tmC.Stop() // c is due at this very instant
		l.Schedule(0, func() { order = append(order, "d") })
	})
	l.Schedule(time.Millisecond, func() { order = append(order, "b") })
	tmC = l.Schedule(time.Millisecond, func() { order = append(order, "c") })
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(order); got != 3 || order[0] != "a" || order[1] != "b" || order[2] != "d" {
		t.Fatalf("order = %v, want [a b d]", order)
	}
	if l.Len() != 0 {
		t.Fatalf("Len() = %d after drain, want 0", l.Len())
	}
	if l.Processed() != 3 {
		t.Fatalf("Processed() = %d, want 3 (the stopped event must not count)", l.Processed())
	}
}

// TestStopWithinInstantResumesInOrder: Stop() between two events of one
// instant leaves the rest pending, and a later run resumes exactly where
// the first broke off, in the original order — whether the stopping event
// scheduled nothing (its key is still held when it returns) or something.
func TestStopWithinInstantResumesInOrder(t *testing.T) {
	for _, schedules := range []bool{false, true} {
		l := NewLoop()
		var order []string
		want := []string{"a", "b", "c"}
		at := Time(time.Millisecond)
		l.At(at, func() {
			order = append(order, "a")
			if schedules {
				l.Schedule(0, func() { order = append(order, "d") })
			}
			l.Stop()
		})
		l.At(at, func() { order = append(order, "b") })
		l.At(at, func() { order = append(order, "c") })
		if schedules {
			want = append(want, "d")
		}
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		if len(order) != 1 || order[0] != "a" {
			t.Fatalf("schedules=%v: order after Stop = %v, want [a]", schedules, order)
		}
		if l.Len() != len(want)-1 || l.held >= 0 {
			t.Fatalf("schedules=%v: Len() = %d, held = %d after Stop within the instant, want %d pending and no held leaf",
				schedules, l.Len(), l.held, len(want)-1)
		}
		checkTree(t, l)
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(order, want) {
			t.Fatalf("schedules=%v: resumed order = %v, want %v", schedules, order, want)
		}
	}
}

// TestEventLimitWithinInstantResumesInOrder: the event limit can trip
// between two events of one instant; the rest must survive for a resumed
// run, whether the event that hit the limit scheduled nothing or something.
func TestEventLimitWithinInstantResumesInOrder(t *testing.T) {
	for _, schedules := range []bool{false, true} {
		l := NewLoop()
		var order []int
		at := Time(time.Millisecond)
		total := 5
		for i := 0; i < 5; i++ {
			id := i
			l.At(at, func() {
				order = append(order, id)
				if schedules && id == 1 {
					l.Schedule(0, func() { order = append(order, 5) })
				}
			})
		}
		if schedules {
			total++
		}
		l.SetEventLimit(2)
		err := l.Run()
		if !errors.Is(err, ErrEventLimit) {
			t.Fatalf("Run returned %v, want ErrEventLimit", err)
		}
		if len(order) != 2 || order[0] != 0 || order[1] != 1 {
			t.Fatalf("schedules=%v: order at limit = %v, want [0 1]", schedules, order)
		}
		if l.Len() != total-2 || l.held >= 0 {
			t.Fatalf("schedules=%v: Len() = %d, held = %d after the limit tripped within the instant, want %d pending and no held leaf",
				schedules, l.Len(), l.held, total-2)
		}
		checkTree(t, l)
		l.SetEventLimit(0)
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		if len(order) != total {
			t.Fatalf("schedules=%v: %d events ran, want %d", schedules, len(order), total)
		}
		for i, id := range order {
			if id != i {
				t.Fatalf("schedules=%v: order = %v, want sequential", schedules, order)
			}
		}
	}
}
