// Package fifo provides the head-indexed queue the packet path's FIFOs
// share: link transmit queues, in-flight frames, the TCP scoreboard and the
// TCP out-of-order queue all append at the back and retire from the front.
package fifo

import "sync"

// minDead is the dead-prefix length below which Pop never compacts: tiny
// queues empty out (and reset for free) before moving them would pay.
const minDead = 16

// Queue is a FIFO over one backing slice. Popping advances a head index
// instead of moving the tail; the dead prefix is reclaimed when the queue
// empties or once it is at least as long as the live part, so each element
// is moved at most once per pop (amortised O(1)) and the slice never holds
// more than about twice the live length. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of live elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Live returns the live elements, front first. The view is valid until the
// next Push, Insert or Pop.
func (q *Queue[T]) Live() []T { return q.buf[q.head:] }

// At returns the i-th live element (0 is the front).
func (q *Queue[T]) At(i int) *T { return &q.buf[q.head+i] }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) { q.buf = append(q.buf, v) }

// Insert places v before the i-th live element (i == Len appends).
func (q *Queue[T]) Insert(i int, v T) {
	var zero T
	q.buf = append(q.buf, zero)
	at := q.head + i
	copy(q.buf[at+1:], q.buf[at:])
	q.buf[at] = v
}

// Truncate keeps the n front elements and retires the rest, zeroed like Pop's.
func (q *Queue[T]) Truncate(n int) {
	clear(q.buf[q.head+n:])
	q.buf = q.buf[:q.head+n]
}

// Pop retires the n front elements, zeroing their slots so the queue does
// not pin what they referenced. The zeroing is a plain loop, not clear():
// pops are overwhelmingly of one element, where the runtime call clear
// compiles to costs more than the element's stores (BenchmarkPushPop).
func (q *Queue[T]) Pop(n int) {
	var zero T
	for end := q.head + n; q.head < end; q.head++ {
		q.buf[q.head] = zero
	}
	switch {
	case q.head == len(q.buf):
		q.buf, q.head = q.buf[:0], 0
	case q.head >= minDead && q.head*2 >= len(q.buf):
		q.buf, q.head = q.buf[:copy(q.buf, q.buf[q.head:])], 0
	}
}

// Detach returns the backing array, live elements included, and empties q.
func (q *Queue[T]) Detach() []T {
	buf := q.buf
	*q = Queue[T]{}
	return buf
}

// Adopt makes the empty slice buf the backing array of the empty queue q.
func (q *Queue[T]) Adopt(buf []T) { q.buf = buf }

// Pool keeps backing arrays between owners, so a run's queues start from
// what the last run's grew. It is safe for concurrent use.
type Pool[T any] struct{ p sync.Pool }

// Get returns an empty slice over an array Put kept, or of capacity n.
func (p *Pool[T]) Get(n int) []T {
	if b, ok := p.p.Get().(*[]T); ok {
		return *b
	}
	return make([]T, 0, n)
}

// Put zeroes all of s's array, so that the pool pins nothing, and keeps it
// for Get. The caller must not touch s again.
func (p *Pool[T]) Put(s []T) {
	if s = s[:cap(s)]; len(s) > 0 {
		clear(s)
		s = s[:0]
		p.p.Put(&s)
	}
}
