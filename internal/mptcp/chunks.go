package mptcp

import (
	"sort"

	"mptcpsim/internal/fifo"
)

// dchunk is one data-level chunk parked out of order: n bytes at dsn.
type dchunk struct {
	dsn uint64
	n   int
}

// blockCap bounds how many chunks an insert can move.
const blockCap = 256

// chunkList is the data-level out-of-order queue: chunks sorted by DSN,
// drained from the front. Head-of-line blocking parks tens of thousands of
// chunks while the other subflows keep inserting a few thousand places from
// the end, so the sorted sequence is cut into blocks of at most blockCap
// chunks: an insert moves part of one block, whatever the queue's length.
// The blocks concatenated are exactly the sorted slice this replaces.
type chunkList struct {
	blocks []block
	// pool keeps the backing arrays of emptied blocks for reuse. It is the
	// list's own: a queue that drains and refills all run long would
	// otherwise go through chunkBufs, which keeps released lists' arrays,
	// at every drain.
	pool [][]dchunk
	n    int
}

// chunkBufs keeps released lists' block arrays; blockLists and bufLists
// keep their blocks and pool slices.
var (
	chunkBufs  fifo.Pool[dchunk]
	blockLists fifo.Pool[block]
	bufLists   fifo.Pool[[]dchunk]
)

// block is one run of the sequence: buf[head:] is live and never empty.
type block struct {
	buf  []dchunk
	head int
}

func (l *chunkList) len() int { return l.n }

// seek returns the position (block, offset in its live part) of the first
// chunk whose dsn is not below the argument; b == len(l.blocks) means every
// chunk is below it.
func (l *chunkList) seek(dsn uint64) (b, i int) {
	if n := len(l.blocks); n == 0 || l.blocks[n-1].buf[len(l.blocks[n-1].buf)-1].dsn < dsn {
		return n, 0 // in order, or the highest yet: the common cases
	}
	b = sort.Search(len(l.blocks), func(b int) bool {
		buf := l.blocks[b].buf
		return buf[len(buf)-1].dsn >= dsn
	})
	if b < len(l.blocks) {
		live := l.blocks[b].buf[l.blocks[b].head:]
		i = sort.Search(len(live), func(i int) bool { return live[i].dsn >= dsn })
	}
	return b, i
}

// at returns the chunk at a position seek returned, nil past the end.
func (l *chunkList) at(b, i int) *dchunk {
	if b == len(l.blocks) {
		return nil
	}
	return &l.blocks[b].buf[l.blocks[b].head+i]
}

// insert places c before position (b, i).
func (l *chunkList) insert(b, i int, c dchunk) {
	if l.blocks == nil {
		l.blocks, l.pool = blockLists.Get(0), bufLists.Get(0)
	}
	l.n++
	if b == len(l.blocks) {
		// Past the end: extend the last block, or open one.
		if b == 0 || len(l.blocks[b-1].buf) == blockCap {
			l.blocks = append(l.blocks, block{buf: l.newBuf()})
			b++
		}
		l.blocks[b-1].buf = append(l.blocks[b-1].buf, c)
		return
	}
	blk := &l.blocks[b]
	if len(blk.buf) == blockCap {
		if blk.head > 0 {
			// Only the front block has a drained prefix to reclaim.
			blk.buf = blk.buf[:copy(blk.buf, blk.buf[blk.head:])]
			blk.head = 0
		} else {
			// Full: the upper half moves to a new block after this one.
			const half = blockCap / 2
			upper := block{buf: append(l.newBuf(), blk.buf[half:]...)}
			blk.buf = blk.buf[:half]
			l.blocks = append(l.blocks, block{})
			copy(l.blocks[b+2:], l.blocks[b+1:])
			l.blocks[b+1] = upper
			if i > half {
				b, i = b+1, i-half
			}
			blk = &l.blocks[b]
		}
	}
	at := blk.head + i
	blk.buf = append(blk.buf, dchunk{})
	copy(blk.buf[at+1:], blk.buf[at:])
	blk.buf[at] = c
}

// front returns the lowest chunk; the list must not be empty.
func (l *chunkList) front() dchunk { return l.blocks[0].buf[l.blocks[0].head] }

// popFront retires the lowest chunk.
func (l *chunkList) popFront() {
	l.n--
	blk := &l.blocks[0]
	blk.head++
	if blk.head == len(blk.buf) {
		l.pool = append(l.pool, blk.buf[:0])
		l.blocks = l.blocks[:copy(l.blocks, l.blocks[1:])]
	}
}

func (l *chunkList) newBuf() []dchunk {
	if n := len(l.pool); n > 0 {
		buf := l.pool[n-1]
		l.pool = l.pool[:n-1]
		return buf
	}
	if len(l.blocks) == 0 {
		// A first block grows on demand: most connections never park
		// more than a handful of chunks.
		return chunkBufs.Get(0)
	}
	return chunkBufs.Get(blockCap)
}

// release hands every array l holds to chunkBufs, and its blocks and pool
// slices to blockLists and bufLists, and empties l.
func (l *chunkList) release() {
	for _, blk := range l.blocks {
		l.pool = append(l.pool, blk.buf)
	}
	for _, buf := range l.pool {
		chunkBufs.Put(buf)
	}
	blockLists.Put(l.blocks)
	bufLists.Put(l.pool)
	*l = chunkList{}
}

// each calls f on every chunk in DSN order.
func (l *chunkList) each(f func(dchunk)) {
	for _, blk := range l.blocks {
		for _, c := range blk.buf[blk.head:] {
			f(c)
		}
	}
}
