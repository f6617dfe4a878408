package tcp

// Benchmarks for the sender's per-ACK scoreboard work. Run them with
//
//	go test -run '^$' -bench . ./internal/tcp

import (
	"fmt"
	"testing"
)

// BenchmarkApplySACK is a recovery seen from the sender: the head segment
// is lost and every ACK carries the one SACK block that fits beside
// timestamps and a data ACK, the top range grown by one segment. The cost
// per ACK must not depend on how far the range has grown, so the two
// scoreboard sizes should report the same ns/op.
func BenchmarkApplySACK(b *testing.B) {
	for _, n := range []int{256, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			c := &Conn{mss: 1000}
			for i := range n {
				c.rtx.Push(seg{seq: uint32(1 + i*1000), length: 1000})
			}
			c.pipe = c.scanOutstanding()
			end := uint32(1 + n*1000)
			block := [][2]uint32{{1001, 1001}}
			b.ReportAllocs()
			for b.Loop() {
				if block[0][1] += 1000; block[0][1] > end {
					// The block reached the last segment: clear the
					// scoreboard and grow it again from the second.
					segs := c.rtx.Live()
					for i := range segs {
						segs[i].sacked = false
					}
					c.sackedSegs, c.sackLow, c.sackTop = 0, 0, 0
					c.pipe = c.scanOutstanding()
					block[0][1] = 2001
				}
				c.applySACK(block)
			}
		})
	}
}
