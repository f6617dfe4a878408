package mptcp

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestChunkListMatchesSortedSlice drives the blocked queue and the plain
// sorted slice it replaced through the same random inserts (clustered, so
// blocks fill and split; at the end; duplicates found by seek) and front
// pops, and requires the same sequence, the same seek answers and the same
// front throughout.
func TestChunkListMatchesSortedSlice(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l chunkList
		var ref []dchunk
		hot := uint64(1 << 20) // where clustered inserts land
		for step := 0; step < 30000; step++ {
			switch op := rng.Intn(100); {
			case op < 70:
				var dsn uint64
				switch rng.Intn(4) {
				case 0:
					dsn = uint64(rng.Intn(1 << 21))
				case 1:
					if len(ref) > 0 {
						dsn = ref[len(ref)-1].dsn + 1 + uint64(rng.Intn(3))
					}
				default:
					dsn = hot + uint64(rng.Intn(2000))
					if rng.Intn(500) == 0 {
						hot = uint64(rng.Intn(1 << 21))
					}
				}
				b, i := l.seek(dsn)
				j := sort.Search(len(ref), func(j int) bool { return ref[j].dsn >= dsn })
				c := l.at(b, i)
				if (c == nil) != (j == len(ref)) || (c != nil && *c != ref[j]) {
					t.Fatalf("seed %d step %d: seek(%d) found %v, sorted slice index %d of %d", seed, step, dsn, c, j, len(ref))
				}
				if c != nil && c.dsn == dsn {
					c.n++
					ref[j].n++
					continue
				}
				l.insert(b, i, dchunk{dsn: dsn, n: step})
				ref = slices.Insert(ref, j, dchunk{dsn: dsn, n: step})
			default:
				for k := rng.Intn(1 + len(ref)/8); k >= 0 && len(ref) > 0; k-- {
					if l.front() != ref[0] {
						t.Fatalf("seed %d step %d: front %v, want %v", seed, step, l.front(), ref[0])
					}
					l.popFront()
					ref = ref[1:]
				}
			}
			if l.len() != len(ref) {
				t.Fatalf("seed %d step %d: len %d, want %d", seed, step, l.len(), len(ref))
			}
			if step%97 == 0 {
				var got []dchunk
				l.each(func(c dchunk) { got = append(got, c) })
				if !slices.Equal(got, ref) {
					t.Fatalf("seed %d step %d: contents diverged from the sorted slice", seed, step)
				}
				for _, blk := range l.blocks {
					if len(blk.buf) > blockCap || blk.head >= len(blk.buf) {
						t.Fatalf("seed %d step %d: block of %d chunks with head %d", seed, step, len(blk.buf), blk.head)
					}
				}
			}
		}
	}
}
