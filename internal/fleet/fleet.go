package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"mptcpsim"
	"mptcpsim/internal/telemetry"
)

// Coordinator drives a fleet sweep: expand the grid once, lease its n
// shards to up to Workers concurrent runners, watch the shard run-logs
// grow in the spool, retry expired or failed leases (resuming the dead
// worker's log), and finally merge the complete logs into the unsharded
// sweep result. The merge goes through mptcpsim.MergeShards, so the
// output is byte-identical to Sweep.Run on the same grid no matter how
// many workers died along the way.
type Coordinator struct {
	// Sweep is the template whose Describe pins the grid digest (Workers
	// and ValidateInvariants must match what the runners execute). Grid is
	// the fleet's grid.
	Sweep *mptcpsim.Sweep
	Grid  *mptcpsim.Grid
	// Shards is n: how many slices the grid is cut into; Workers how many
	// leases may run concurrently.
	Shards  int
	Workers int
	// Spool is the shared spool directory (created if missing).
	Spool string
	// Runner executes one lease; see Worker (in-process) and ExecRunner.
	Runner Runner
	// TTL is the lease deadline (positive); an expired lease is re-granted
	// and its late completion rejected. MaxAttempts bounds grants per shard
	// (0 = fleetDefaultAttempts); Backoff delays re-granting a failed
	// shard. Poll is the progress-scan interval (0 = 200ms).
	TTL         time.Duration
	MaxAttempts int
	Backoff     time.Duration
	Poll        time.Duration
	// Meter, when set, receives fleet-wide progress: committed records
	// found in the spool at startup via Resume, everything after via
	// Advance.
	Meter *telemetry.Meter
	// Log, when set, receives coordinator notices (grants, expiries,
	// retries) — never sweep output.
	Log io.Writer

	// tails are the shard logs' live readers, published under mu so that
	// Progress may run concurrently with Run.
	mu    sync.Mutex
	tails []*shardTail
}

const fleetDefaultAttempts = 5

func (c *Coordinator) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Run executes the fleet to completion and returns the merged result.
func (c *Coordinator) Run(ctx context.Context) (*mptcpsim.SweepResult, error) {
	if c.Shards <= 0 {
		return nil, fmt.Errorf("fleet: need at least one shard, have %d", c.Shards)
	}
	if c.Workers <= 0 {
		return nil, fmt.Errorf("fleet: need at least one worker, have %d", c.Workers)
	}
	if c.TTL <= 0 {
		// A lease that expires as it is granted would hand the shard to a
		// second writer while the first is still appending to its log.
		return nil, fmt.Errorf("fleet: need a positive lease TTL, have %v", c.TTL)
	}
	if err := os.MkdirAll(c.Spool, 0o777); err != nil {
		return nil, err
	}
	digest, total, err := c.Sweep.Describe(c.Grid)
	if err != nil {
		return nil, err
	}
	maxAttempts := c.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = fleetDefaultAttempts
	}
	poll := c.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	table := NewTable(c.Shards, c.TTL, maxAttempts, c.Backoff)
	tails := make([]*shardTail, c.Shards)
	for k := range tails {
		tails[k] = newShardTail(ShardLogPath(c.Spool, k, c.Shards),
			mptcpsim.RunLogHeader{GridDigest: digest, K: k, N: c.Shards, Total: total})
	}
	c.mu.Lock()
	c.tails = tails
	c.mu.Unlock()

	// Prime the meter with whatever a previous coordinator left in the
	// spool: those runs are a resume baseline, not progress this execution
	// earned.
	if done, failed, err := c.scanProgress(); err != nil {
		return nil, err
	} else if done > 0 {
		c.logf("fleet: spool already holds %d committed runs; resuming", done)
		if c.Meter != nil {
			c.Meter.Resume(done, failed)
		}
	}

	type doneMsg struct {
		lease Lease
		err   error
	}
	results := make(chan doneMsg)
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	active := 0
	workerSeq := 0

	for !table.Done() {
		for active < c.Workers {
			lease, ok := table.Acquire(fmt.Sprintf("w%03d", workerSeq))
			if !ok {
				break
			}
			workerSeq++
			c.logf("fleet: lease %s (attempt %d, deadline %s)",
				lease, leaseAttempt(table, lease), lease.Deadline.Format(time.RFC3339))
			active++
			go func(lease Lease) {
				runCtx, cancel := context.WithDeadline(ctx, lease.Deadline)
				err := c.Runner.Run(runCtx, lease)
				cancel()
				results <- doneMsg{lease, err}
			}(lease)
		}
		if active == 0 {
			// Nothing running and nothing grantable: either some shard is
			// backing off (the ticker will retry the grant) or every
			// remaining shard is out of attempts.
			if k, stuck := table.Exhausted(); stuck {
				return nil, fmt.Errorf("fleet: shard %d/%d: %w", k, c.Shards, ErrAttemptsExhausted)
			}
		}
		select {
		case msg := <-results:
			active--
			if err := c.settle(table, msg.lease, msg.err); err != nil {
				// Drain outstanding runners before aborting so none of them
				// keeps writing to a spool we just declared broken.
				for active > 0 {
					<-results
					active--
				}
				return nil, err
			}
		case <-ticker.C:
			if _, _, err := c.advanceProgress(); err != nil {
				c.logf("fleet: progress scan: %v", err)
			}
		case <-ctx.Done():
			for active > 0 {
				<-results
				active--
			}
			return nil, ctx.Err()
		}
	}

	if _, _, err := c.advanceProgress(); err != nil {
		return nil, err
	}
	return c.merge()
}

// settle classifies one runner return: the shard log decides, not the
// runner's error — a SIGKILLed process and a clean exit both count as
// complete if (and only if) every index of the shard is committed.
func (c *Coordinator) settle(table *Table, lease Lease, runErr error) error {
	if _, _, err := c.advanceProgress(); err != nil {
		c.logf("fleet: progress scan: %v", err)
	}
	complete, err := c.tails[lease.K].complete()
	if err != nil {
		// A committed line the reader refuses: resume cannot fix this, so
		// retrying the lease would loop. Abort loudly.
		return fmt.Errorf("fleet: shard %d/%d log unusable: %w", lease.K, lease.N, err)
	}
	if complete {
		if err := table.Complete(lease.K, lease.Epoch); err != nil {
			// The lease expired and the shard was re-granted; the late
			// result is discarded (the log itself is still fine — the
			// current leaseholder resumes it and will find nothing left
			// to do).
			c.logf("fleet: %s finished late: %v", lease, err)
		}
		return nil
	}
	c.logf("fleet: %s incomplete (runner: %v); releasing for retry", lease, runErr)
	if err := table.Fail(lease.K, lease.Epoch); err != nil {
		if errors.Is(err, ErrStaleLease) {
			return nil // already re-granted after expiry
		}
		return fmt.Errorf("%w (last runner error: %v)", err, runErr)
	}
	return nil
}

// merge reassembles the unsharded result from the logs the tails have
// read. MergeShards revalidates digest agreement and exactly-once coverage
// of every index, so a passing merge is the byte-identity guarantee, not
// just a concatenation.
func (c *Coordinator) merge() (*mptcpsim.SweepResult, error) {
	shards := make([]*mptcpsim.ShardResult, len(c.tails))
	for k, t := range c.tails {
		shards[k] = t.shardResult()
	}
	res, err := mptcpsim.MergeShards(shards...)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return res, nil
}

// scanProgress polls every tail once and returns the totals without
// advancing the meter — the startup baseline — and the first tail error.
// A tail that meets a bad record still returns the runs it kept before it,
// and never returns them again, so they are counted here; the other tails
// are polled all the same.
func (c *Coordinator) scanProgress() (done, failed int, err error) {
	for _, t := range c.tails {
		d, f, perr := t.poll()
		done += d
		failed += f
		if err == nil {
			err = perr
		}
	}
	return done, failed, err
}

// advanceProgress polls every tail and advances the meter by what is new.
func (c *Coordinator) advanceProgress() (done, failed int, err error) {
	done, failed, err = c.scanProgress()
	if c.Meter != nil && done > 0 {
		if merr := c.Meter.Advance(done, failed); err == nil {
			err = merr
		}
	}
	return done, failed, err
}

// Progress is the live fleet-wide result: every run the shard tails have
// read so far, sorted and aggregated by the same code as the merge, so once
// the fleet finishes it equals Run's result. Safe to call concurrently with
// Run (the expvar/debug surface does).
func (c *Coordinator) Progress() *mptcpsim.SweepResult {
	c.mu.Lock()
	tails := c.tails
	c.mu.Unlock()
	mem := &mptcpsim.MemorySink{}
	for _, t := range tails {
		t.feed(mem)
	}
	return mem.Result()
}

// leaseAttempt reads the attempt count behind a lease (for notices only).
func leaseAttempt(t *Table, l Lease) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shards[l.K].attempts
}
