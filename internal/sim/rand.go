package sim

import (
	"fmt"
	"math/rand"
	"reflect"
)

// Rand is a seeded pseudo-random source for model components. It wraps
// math/rand.Rand with helpers used across the simulator and exists so that
// every stochastic decision in a run flows from one recorded seed.
type Rand struct {
	*rand.Rand
}

// NewRand returns a deterministic source for the given seed. It draws
// exactly what rand.New(rand.NewSource(seed)) draws.
func NewRand(seed int64) *Rand {
	s := new(source)
	s.Seed(seed)
	return &Rand{Rand: rand.New(s)}
}

// Fork derives an independent stream for a named subcomponent. Components
// forked in the same order from the same parent always observe the same
// stream, keeping runs reproducible even when components are added.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Int63())
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// The shape of math/rand's source: an additive lagged-Fibonacci register
// (Mitchell and Reeds) whose words are filled at Seed from the Lehmer
// generator x ← 48271·x mod 2³¹−1.
const (
	regLen   = 607             // words in the register
	regTap   = 273             // lag from the feed index to the tap index
	seedMod  = 1<<31 - 1       // the Lehmer generator's modulus
	seedMul  = 48271           // its multiplier
	seedSkip = 20              // its draws discarded before word 0
	seedZero = 89482311        // what Seed uses for a seed ≡ 0
	regCold  = regLen - regTap // the feed index after Seed, and the draws until every word is filled
)

// source is math/rand's source, seeded as far as it is drawn. math/rand's
// Seed steps the Lehmer generator 1 841 times to fill all 607 words, and
// most of a simulation's streams then take a handful of draws. Word i is
// (x₂₁₊₃ᵢ≪40) ⊕ (x₂₂₊₃ᵢ≪20) ⊕ x₂₃₊₃ᵢ ⊕ cooked[i] with xₙ = x₀·48271ⁿ, so
// it needs no other word. Draw k ≤ 334 is the first to read its feed word
// 334−k, and draw k ≤ 273 the first to read its tap word 607−k (later taps
// read words an earlier draw fed); each word is computed at that first
// read. After 334 draws every word is filled and a draw is math/rand's step
// alone.
type source struct {
	tap, feed int
	cold      int    // draws left that read words not yet computed
	x0        uint64 // the Lehmer generator's start, in [1, 2³¹−1)
	vec       [regLen]int64
}

// seedWords[i] is what register word i takes besides the seed: the powers
// of 48271 that step the Lehmer generator from x₀ to its three draws, and
// math/rand's cooked constant the word is XORed with.
var seedWords [regLen]struct {
	pow    [3]uint32
	cooked int64
}

// Seed starts the stream math/rand's Seed starts for seed.
func (s *source) Seed(seed int64) {
	s.tap, s.feed, s.cold = 0, regCold, regCold
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = seedZero
	}
	s.x0 = uint64(seed)
}

// word returns register word i as math/rand's Seed leaves it.
func (s *source) word(i int) int64 {
	w := &seedWords[i]
	a := s.x0 * uint64(w.pow[0]) % seedMod
	b := s.x0 * uint64(w.pow[1]) % seedMod
	c := s.x0 * uint64(w.pow[2]) % seedMod
	return int64(a<<40^b<<20^c) ^ w.cooked
}

// Uint64 is math/rand's step: the feed word plus the tap word, stored back
// at the feed.
func (s *source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += regLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += regLen
	}
	if s.cold > 0 {
		s.cold--
		s.vec[s.feed] = s.word(s.feed)
		if s.tap >= regCold {
			s.vec[s.tap] = s.word(s.tap)
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is Uint64 with its top bit cleared, as math/rand's.
func (s *source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// init builds seedWords. The cooked table is not copied: it is math/rand's
// register for one seed with the Lehmer part XORed out. A math/rand whose
// source is not this register, or steps differently, stops the program here
// rather than moving every seeded result.
func init() {
	p := uint64(1)
	for range seedSkip + 1 {
		p = p * seedMul % seedMod
	}
	for i := range seedWords {
		for j := range seedWords[i].pow {
			seedWords[i].pow[j] = uint32(p)
			p = p * seedMul % seedMod
		}
	}
	var s source
	s.Seed(1)
	for i, v := range stockRegister(1) {
		seedWords[i].cooked = v ^ s.word(i)
	}

	// Every word is read within the first 334 draws of another seed.
	const check = -1
	s.Seed(check)
	stock := rand.NewSource(check).(rand.Source64)
	for k := range 2 * regLen {
		if got, want := s.Uint64(), stock.Uint64(); got != want {
			panic(fmt.Sprintf("sim: math/rand's draw %d for seed %d is %#x, the closed form and lagged-Fibonacci step give %#x", k, check, want, got))
		}
	}
}

// stockRegister returns the register of rand.NewSource(seed), read by
// reflection, and panics unless that source is the 607-word register
// source reproduces, freshly seeded.
func stockRegister(seed int64) []int64 {
	v := reflect.ValueOf(rand.NewSource(seed))
	fail := func(why string) {
		panic(fmt.Sprintf("sim: math/rand's source %s is not the register sim.Rand reproduces: %s", v.Type(), why))
	}
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		fail("not a pointer to a struct")
	}
	v = v.Elem()
	tap, feed, vec := v.FieldByName("tap"), v.FieldByName("feed"), v.FieldByName("vec")
	if !tap.IsValid() || !feed.IsValid() || !vec.IsValid() || tap.Kind() != reflect.Int || feed.Kind() != reflect.Int ||
		vec.Kind() != reflect.Array || vec.Len() != regLen || vec.Type().Elem().Kind() != reflect.Int64 {
		fail("no int fields tap and feed and [607]int64 field vec")
	}
	if tap.Int() != 0 || feed.Int() != regCold {
		fail(fmt.Sprintf("seeded to tap %d, feed %d", tap.Int(), feed.Int()))
	}
	words := make([]int64, regLen)
	for i := range words {
		words[i] = vec.Index(i).Int()
	}
	return words
}
