package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel: a discrete-event loop of the benchmark's own, with
// nothing of the program in it, run between the program's runs to read how
// fast the host is at that moment. The machine this runs on is a few
// virtual cores of a shared host whose speed drifts by tens of percent over
// minutes — CPU time with wall time — so a raw host-time number says as
// much about the neighbours as about the program. A pass's cost divided by
// the reference kernel's cost at the same moment does not.
//
// The kernel is shaped like the simulator's hot loop (a binary heap of
// small events, each pop touching a record chosen by the event, each
// handler scheduling a successor), so that what slows one slows the other:
// clock frequency, a busy sibling thread, a contended cache. No change to
// the program can move it, because it calls nothing outside this file.

// refEvent is one pending event of the reference kernel.
type refEvent struct {
	at   int64
	seq  uint32
	slot uint32
}

// refRecord is what an event touches: one cache line.
type refRecord struct {
	bytes, segs uint64
	last        int64
	_           [5]uint64
}

// refKernel holds the pending set and the records.
type refKernel struct {
	heap  []refEvent
	recs  []refRecord
	rng   uint64
	seq   uint32
	check uint64
}

// newRefKernel builds a kernel with that many pending events over that many
// records (a power of two).
func newRefKernel(pending, records int) *refKernel {
	k := &refKernel{heap: make([]refEvent, 0, pending+1), recs: make([]refRecord, records), rng: 0x9e3779b97f4a7c15}
	for i := 0; i < pending; i++ {
		k.push(refEvent{at: int64(k.next() % 4096), slot: uint32(k.next()) & uint32(records-1)})
	}
	return k
}

func (k *refKernel) next() uint64 {
	k.rng ^= k.rng << 13
	k.rng ^= k.rng >> 7
	k.rng ^= k.rng << 17
	return k.rng
}

func (e refEvent) before(f refEvent) bool {
	return e.at < f.at || (e.at == f.at && e.seq < f.seq)
}

func (k *refKernel) push(e refEvent) {
	k.seq++
	e.seq = k.seq
	h := append(k.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	k.heap = h
}

func (k *refKernel) pop() refEvent {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	k.heap = h
	return top
}

// threadCPUSeconds is the CPU time of the calling thread, read from the
// thread's CPU clock: getrusage(RUSAGE_THREAD) only advances at scheduler
// ticks, which are as long as a slice.
func threadCPUSeconds() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// spin fires ops events and returns the wall and CPU seconds they took.
// The CPU time is the spinning thread's own, so that garbage collection
// still running for the program on another thread is not charged to the
// kernel.
func (k *refKernel) spin(ops int) (wall, cpu float64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUSeconds()
	t0 := time.Now()
	mask := uint32(len(k.recs) - 1)
	for i := 0; i < ops; i++ {
		e := k.pop()
		r := &k.recs[e.slot]
		r.bytes += 1448
		r.segs++
		k.check += uint64(e.at - r.last)
		r.last = e.at
		x := k.next()
		k.push(refEvent{at: e.at + 1 + int64(x%2048), slot: uint32(x>>32) & mask})
	}
	return time.Since(t0).Seconds(), threadCPUSeconds() - c0
}

// refShare is how long the reference kernel spins, as a share of the
// program's time: a sixth of the program's, a seventh of the pass's.
const refShare = 0.15

// minSlice is the shortest stretch of the program's work between two
// slices, so that a slice is long against the clock reads around it.
const minSlice = 20 * time.Millisecond

// refNominal defines the reference host: one on which the kernel fires this
// many events per second. It is what the machine the baseline was taken on
// does when its neighbours are quiet, so a normalised number reads like a
// raw one from a quiet run there.
const refNominal = 13e6

// refTotals is what the slices of the kernel cost since the last reset.
type refTotals struct {
	Ops       int
	Wall, CPU float64 // seconds
}

// slowdown is how many times slower than the reference host the host was
// during the slices, by the wall clock; cpuSlowdown by the CPU clock. With
// no slice at all (a pass shorter than minSlice) both are 1.
func (t refTotals) slowdown() float64 {
	if t.Ops == 0 || t.Wall <= 0 {
		return 1
	}
	return refNominal * t.Wall / float64(t.Ops)
}

func (t refTotals) cpuSlowdown() float64 {
	if t.Ops == 0 || t.CPU <= 0 {
		return 1
	}
	return refNominal * t.CPU / float64(t.Ops)
}

// refMeter interleaves slices of the reference kernel with the work being
// timed: tick, called between two runs of the program, spins the kernel
// for refShare of the time since the previous slice ended. Host speed
// wobbles within a second as well as over minutes, so the reference has to
// be sampled all through a pass, not before and after it.
type refMeter struct {
	k    *refKernel
	rate float64   // events per second, as of the last slice
	last time.Time // when the last slice ended
	tot  refTotals
}

func newRefMeter() *refMeter {
	// 256 pending events over 256 KiB of records: paper_bulk's pending
	// set, and a working set that its own slices keep in the second-level
	// cache however much the program evicts in between.
	m := &refMeter{k: newRefKernel(256, 1<<12)}
	const warm = 200000
	wall, _ := m.k.spin(warm)
	m.rate = warm / wall
	return m
}

// reset starts a new measurement; a nil meter measures nothing.
func (m *refMeter) reset() {
	if m != nil {
		m.tot = refTotals{}
		m.last = time.Now()
	}
}

func (m *refMeter) tick() {
	gap := time.Since(m.last)
	if gap < minSlice {
		return
	}
	ops := int(gap.Seconds() * refShare * m.rate)
	wall, cpu := m.k.spin(ops)
	m.tot.Ops += ops
	m.tot.Wall += wall
	m.tot.CPU += cpu
	m.rate = float64(ops) / wall
	m.last = time.Now()
}
