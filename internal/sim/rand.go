package sim

import "math/rand"

// Rand is a seeded pseudo-random source for model components. It wraps
// math/rand.Rand with helpers used across the simulator and exists so that
// every stochastic decision in a run flows from one recorded seed.
type Rand struct {
	*rand.Rand
}

// NewRand returns a deterministic source for the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{Rand: rand.New(rand.NewSource(seed))}
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
