package fleet

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeNow is a mutex-guarded fake clock for the lease table.
type fakeNow struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeNow) get() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeNow) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestTable(n int, ttl time.Duration, maxAttempts int) (*Table, *fakeNow) {
	table := NewTable(n, ttl, maxAttempts)
	clock := &fakeNow{now: time.Unix(1700000000, 0)}
	table.now = clock.get
	return table, clock
}

// TestTableLateCompletionRejected is the exactly-once property of the
// lease protocol: a lease expires, the shard is re-granted under a new
// epoch, and the original worker finishing late must be rejected as
// stale — the replacement's completion is the only one honoured, and a
// duplicate of it is rejected too.
func TestTableLateCompletionRejected(t *testing.T) {
	table, clock := newTestTable(1, time.Minute, 0)

	a, ok := table.Acquire("a")
	if !ok || a.Epoch != 1 {
		t.Fatalf("first grant: ok=%v epoch=%d, want grant at epoch 1", ok, a.Epoch)
	}
	if _, ok := table.Acquire("b"); ok {
		t.Fatal("shard granted twice inside a live lease")
	}

	clock.advance(2 * time.Minute) // a's lease expires silently
	b, ok := table.Acquire("b")
	if !ok || b.K != a.K || b.Epoch != 2 {
		t.Fatalf("re-grant after expiry: ok=%v k=%d epoch=%d, want shard %d at epoch 2", ok, b.K, b.Epoch, a.K)
	}

	// The original worker finishes anyway: rejected, shard still open.
	if err := table.Complete(a.K, a.Epoch); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("late completion: err = %v, want ErrStaleLease", err)
	}
	if table.Done() {
		t.Fatal("a stale completion closed the shard")
	}
	// Its failure report is equally stale.
	if err := table.Fail(a.K, a.Epoch); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("late failure: err = %v, want ErrStaleLease", err)
	}

	if err := table.Complete(b.K, b.Epoch); err != nil {
		t.Fatalf("current-epoch completion: %v", err)
	}
	if !table.Done() {
		t.Fatal("table not done after the only shard completed")
	}
	if err := table.Complete(b.K, b.Epoch); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("duplicate completion: err = %v, want ErrStaleLease", err)
	}
}

// TestTableCompleteRace drives the expiry→re-lease→late-finish race with
// actually concurrent completions (run under -race in CI): across every
// interleaving, exactly one completion per shard is honoured.
func TestTableCompleteRace(t *testing.T) {
	for round := 0; round < 200; round++ {
		table := NewTable(1, 0, 0) // ttl 0: every lease is expired at once
		a, ok := table.Acquire("a")
		if !ok {
			t.Fatal("first grant refused")
		}
		b, ok := table.Acquire("b") // re-grant of the instantly expired lease
		if !ok {
			t.Fatal("re-grant after zero-ttl expiry refused")
		}
		var successes int32
		var wg sync.WaitGroup
		for _, lease := range []Lease{a, b} {
			wg.Add(1)
			go func(l Lease) {
				defer wg.Done()
				if table.Complete(l.K, l.Epoch) == nil {
					atomic.AddInt32(&successes, 1)
				}
			}(lease)
		}
		wg.Wait()
		if successes != 1 {
			t.Fatalf("round %d: %d completions honoured, want exactly 1", round, successes)
		}
		if !table.Done() {
			t.Fatalf("round %d: shard left open", round)
		}
	}
}

// TestTableRetryBackoffAndExhaustion covers the failure path: a failed
// shard is granted again at once under a fresh epoch, and after
// maxAttempts grants the table reports it exhausted.
func TestTableRetryBackoffAndExhaustion(t *testing.T) {
	table, _ := newTestTable(2, time.Minute, 2)

	l0, _ := table.Acquire("w")
	l1, _ := table.Acquire("w")
	if l0.K != 0 || l1.K != 1 {
		t.Fatalf("grants out of order: %d then %d", l0.K, l1.K)
	}
	if err := table.Complete(l1.K, l1.Epoch); err != nil {
		t.Fatal(err)
	}
	if err := table.Fail(l0.K, l0.Epoch); err != nil {
		t.Fatalf("first failure within attempts: %v", err)
	}
	retry, ok := table.Acquire("w")
	if !ok || retry.K != 0 || retry.Epoch != 2 {
		t.Fatalf("retry: ok=%v k=%d epoch=%d, want shard 0 at epoch 2", ok, retry.K, retry.Epoch)
	}

	// Second (= last allowed) attempt fails: the table is exhausted.
	err := table.Fail(retry.K, retry.Epoch)
	if !errors.Is(err, ErrAttemptsExhausted) {
		t.Fatalf("final failure: err = %v, want ErrAttemptsExhausted", err)
	}
	if _, ok := table.Acquire("w"); ok {
		t.Fatal("exhausted shard granted again")
	}
	if k, stuck := table.Exhausted(); !stuck || k != 0 {
		t.Fatalf("Exhausted() = %d,%v, want shard 0 stuck", k, stuck)
	}
	if table.Done() {
		t.Fatal("exhausted table reports done")
	}
}
