package sim

import (
	"math"
	"math/rand"
	"testing"
)

// randPair is a Rand under test beside its reference, the stock math/rand
// generator for the same seed, forked as Fork forks.
type randPair struct {
	got  *Rand
	want *rand.Rand
	seed int64 // the root stream's, for failure messages
}

func newRandPair(seed int64) randPair {
	return randPair{NewRand(seed), rand.New(rand.NewSource(seed)), seed}
}

// op applies one operation to both sides and fails on the first draw where
// they differ. The low three bits of b pick the operation, the high five an
// argument a: Uint64 takes 8·(a+1) draws in a row, so short inputs reach
// deep into a stream; Int63n and Intn draw below (a+1)·2^a, or below
// 2^62+1 for a = 31, where rejection redraws half the time; Seed reseeds
// both mid-stream from reseed and a.
func (p *randPair) op(t testing.TB, b byte, reseed int64) {
	a := int64(b >> 3)
	n := (a + 1) << a
	if a == 31 {
		n = 1<<62 + 1
	}
	check := func(what string, got, want any) {
		if got != want {
			t.Fatalf("seed %d, op %#x: %s gave %v, math/rand gives %v", p.seed, b, what, got, want)
		}
	}
	switch b & 7 {
	case 0:
		for range 8 * (a + 1) {
			check("Uint64", p.got.Uint64(), p.want.Uint64())
		}
	case 1:
		check("Int63", p.got.Int63(), p.want.Int63())
	case 2:
		check("Int63n", p.got.Int63n(n), p.want.Int63n(n))
	case 3:
		check("Intn", p.got.Intn(int(n)), p.want.Intn(int(n)))
	case 4:
		check("Float64", p.got.Float64(), p.want.Float64())
	case 5:
		check("Bool", p.got.Bool(0.3), p.want.Float64() < 0.3)
	case 6:
		p.got, p.want = p.got.Fork(), rand.New(rand.NewSource(p.want.Int63()))
	case 7:
		p.got.Seed(reseed ^ a)
		p.want.Seed(reseed ^ a)
	}
}

// TestRandMatchesMathRand holds NewRand to math/rand draw for draw: 300
// random seeds and the seeds at the edges of Seed's reduction mod 2³¹−1,
// each through 2×607 mixed draws (the register wraps, and every word is
// past its first read), a Seed mid-stream over the stale register and
// 2×607 more, then a chain of eight Forks.
func TestRandMatchesMathRand(t *testing.T) {
	seeds := []int64{0, -1, math.MaxInt32, -math.MaxInt32, 1 << 31, math.MinInt64, math.MaxInt64, seedZero}
	r := rand.New(rand.NewSource(1))
	for range 300 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	draw := func() byte { return byte(r.Intn(32))<<3 | byte(1+r.Intn(5)) } // Int63 to Bool
	for _, seed := range seeds {
		p := newRandPair(seed)
		for half := range 2 {
			if half == 1 {
				p.op(t, 7, seed+12345) // Seed
			}
			for range 2 * regLen {
				p.op(t, draw(), 0)
			}
			p.op(t, byte(r.Intn(32))<<3, 0) // a run of Uint64s
		}
		for range 8 {
			p.op(t, 6, 0) // Fork
			for range 20 {
				p.op(t, draw(), 0)
			}
		}
	}
}

// FuzzRandStream runs an operation sequence (see randPair.op) from a seed
// on NewRand and on math/rand.
func FuzzRandStream(f *testing.F) {
	f.Add(int64(1), []byte{0xf8, 0xf8, 0x01, 0x02, 0x03, 0x04, 0x05})
	f.Add(int64(0), []byte{0x78, 0x06, 0xf8, 0xf8, 0x07, 0xfa, 0xfb, 0xf8})
	f.Add(int64(math.MinInt64), []byte{0xf8, 0xf8, 0xf8, 0x1f, 0xf8, 0xf8, 0xf8, 0x0e})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		p := newRandPair(seed)
		for _, b := range ops {
			p.op(t, b, seed)
		}
	})
}
