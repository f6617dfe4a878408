// Package fleet coordinates a fleet of sweep workers over one parameter
// grid: the grid is expanded once into n shards, each shard is leased to a
// worker with a deadline, expired or failed leases are retried with
// backoff, and the shard run-logs accumulating in a shared spool directory
// are each followed by one incremental reader (mptcpsim.RunLog.Follow,
// ReadRunLog's own parser). What it has read is the live fleet-wide
// result, the test of whether a returned lease finished its shard, and, at
// the end, the input of the same validated merge as any other run-logs —
// so the fleet result is byte-identical to an unsharded sweep.
//
// The lease protocol is deliberately thin: a lease is a promise from the
// coordinator not to hand the same shard to anyone else before the
// deadline, and the shard's append-only run-log (with resume) is the only
// shared state. A worker that dies mid-shard wastes nothing — the next
// lease resumes its log past the last committed record.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrStaleLease reports a completion (or failure) carrying a lease epoch
// the table has since re-granted: the original worker outlived its
// deadline and a replacement holds the shard now, so the late result must
// be discarded to keep coverage exactly-once.
var ErrStaleLease = errors.New("stale lease epoch")

// ErrAttemptsExhausted reports a shard that failed more times than the
// table allows — the fleet cannot complete and should abort loudly rather
// than spin on a shard that will never finish.
var ErrAttemptsExhausted = errors.New("shard attempts exhausted")

// Lease is one grant: shard K of N, held by Worker under Epoch until
// Deadline. The epoch is the grant counter for the shard; a completion is
// honoured only if its epoch is still the shard's current one.
type Lease struct {
	K, N     int
	Epoch    int
	Worker   string
	Deadline time.Time
}

func (l Lease) String() string {
	return fmt.Sprintf("shard %d/%d epoch %d -> %s", l.K, l.N, l.Epoch, l.Worker)
}

const (
	statePending = iota
	stateLeased
	stateDone
)

type shardState struct {
	state    int
	epoch    int       // grant counter; 0 = never granted
	attempts int       // grants so far
	eligible time.Time // earliest next grant (failure backoff)
	deadline time.Time
}

// Table is the coordinator's lease ledger over the n shards of one grid.
// It is safe for concurrent use; time comes from a swappable clock so
// expiry is testable without sleeping.
type Table struct {
	n           int
	ttl         time.Duration
	maxAttempts int
	backoff     time.Duration
	now         func() time.Time

	mu     sync.Mutex
	shards []shardState
	done   int
}

// NewTable returns a lease table for n shards. Each grant lasts ttl; a
// shard may be granted at most maxAttempts times (0 means unlimited), and
// after a failure the shard is withheld for backoff before the next grant.
func NewTable(n int, ttl time.Duration, maxAttempts int, backoff time.Duration) *Table {
	return &Table{
		n: n, ttl: ttl, maxAttempts: maxAttempts, backoff: backoff,
		now:    time.Now,
		shards: make([]shardState, n),
	}
}

// Acquire grants the lowest-numbered grantable shard to worker: a shard
// never granted, one released by failure (past its backoff), or one whose
// lease expired without word from its worker — that grant bumps the epoch,
// so the silent worker's eventual completion will be stale. ok is false
// when nothing is grantable right now (all running, backing off, or done).
func (t *Table) Acquire(worker string) (lease Lease, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for k := range t.shards {
		s := &t.shards[k]
		switch s.state {
		case stateDone:
			continue
		case statePending:
			if now.Before(s.eligible) {
				continue
			}
		case stateLeased:
			if now.Before(s.deadline) {
				continue
			}
			// Expired without a Complete or Fail: an implicit failure.
		}
		if t.maxAttempts > 0 && s.attempts >= t.maxAttempts {
			continue
		}
		s.state = stateLeased
		s.epoch++
		s.attempts++
		s.deadline = now.Add(t.ttl)
		return Lease{K: k, N: t.n, Epoch: s.epoch, Worker: worker, Deadline: s.deadline}, true
	}
	return Lease{}, false
}

// Complete marks shard k done under the given epoch. A stale epoch — the
// shard has been re-granted since, or was already completed by someone
// else — returns ErrStaleLease and changes nothing: the caller must
// discard the late result. A completion under the current epoch is
// honoured even past the deadline, since no replacement was granted.
func (t *Table) Complete(k, epoch int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.shards[k]
	if s.state != stateLeased || s.epoch != epoch {
		return fmt.Errorf("fleet: shard %d/%d completion at epoch %d (table at %d): %w",
			k, t.n, epoch, s.epoch, ErrStaleLease)
	}
	s.state = stateDone
	t.done++
	return nil
}

// Fail releases shard k for retry under the given epoch (a worker that
// reported its own death; expiry needs no Fail — Acquire re-grants expired
// leases on its own). A stale epoch returns ErrStaleLease; a shard out of
// attempts returns ErrAttemptsExhausted, upon which the fleet should
// abort.
func (t *Table) Fail(k, epoch int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.shards[k]
	if s.state != stateLeased || s.epoch != epoch {
		return fmt.Errorf("fleet: shard %d/%d failure at epoch %d (table at %d): %w",
			k, t.n, epoch, s.epoch, ErrStaleLease)
	}
	s.state = statePending
	s.eligible = t.now().Add(t.backoff)
	if t.maxAttempts > 0 && s.attempts >= t.maxAttempts {
		return fmt.Errorf("fleet: shard %d/%d failed %d times: %w", k, t.n, s.attempts, ErrAttemptsExhausted)
	}
	return nil
}

// Exhausted returns a shard that can never be granted again — not done,
// not within a live lease, and out of attempts — or ok=false when every
// remaining shard still has a path to completion. With no runners active
// this is the fleet's stuck test.
func (t *Table) Exhausted() (k int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.maxAttempts <= 0 {
		return 0, false
	}
	now := t.now()
	for k := range t.shards {
		s := &t.shards[k]
		if s.state == stateDone {
			continue
		}
		if s.state == stateLeased && now.Before(s.deadline) {
			continue
		}
		if s.attempts >= t.maxAttempts {
			return k, true
		}
	}
	return 0, false
}

// Done reports whether every shard has completed.
func (t *Table) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done == t.n
}
