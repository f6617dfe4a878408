package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"mptcpsim"
)

// Coordinator drives a fleet sweep: expand the grid once, lease its n
// shards to up to Workers concurrent runners, read a shard's run-log in
// the spool whenever its lease returns, retry expired or failed leases
// (resuming the dead worker's log), and finally merge the complete logs
// into the unsharded sweep result. The merge goes through
// mptcpsim.MergeShards, so the output is byte-identical to Sweep.Run on
// the same grid no matter how many workers died along the way.
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
	// Runner executes one lease; see Worker.
	Runner Runner
	// TTL is the lease deadline (positive); an expired lease is re-granted
	// and its late completion rejected. A shard is granted at most
	// fleetDefaultAttempts times.
	TTL time.Duration

	// tails are the shard logs' readers.
	tails []*shardTail
}

const fleetDefaultAttempts = 5

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
	table := NewTable(c.Shards, c.TTL, fleetDefaultAttempts)
	c.tails = make([]*shardTail, c.Shards)
	for k := range c.tails {
		c.tails[k] = newShardTail(ShardLogPath(c.Spool, k, c.Shards),
			mptcpsim.RunLogHeader{GridDigest: digest, K: k, N: c.Shards, Total: total})
		// A log another grid or shard shape left in the spool is refused
		// before any lease is granted.
		if err := c.tails[k].poll(); err != nil {
			return nil, err
		}
	}

	type doneMsg struct {
		lease Lease
		err   error
	}
	results := make(chan doneMsg)
	active := 0
	workerSeq := 0

	for !table.Done() {
		for active < c.Workers {
			lease, ok := table.Acquire(fmt.Sprintf("w%03d", workerSeq))
			if !ok {
				break
			}
			workerSeq++
			active++
			go func(lease Lease) {
				runCtx, cancel := context.WithDeadline(ctx, lease.Deadline)
				err := c.Runner.Run(runCtx, lease)
				cancel()
				results <- doneMsg{lease, err}
			}(lease)
		}
		if active == 0 {
			// Nothing running and nothing grantable: a remaining shard is
			// out of attempts.
			k, _ := table.Exhausted()
			return nil, fmt.Errorf("fleet: shard %d/%d: %w", k, c.Shards, ErrAttemptsExhausted)
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
		case <-ctx.Done():
			for active > 0 {
				<-results
				active--
			}
			return nil, ctx.Err()
		}
	}
	return c.merge()
}

// settle classifies one runner return: the shard log decides, not the
// runner's error — a SIGKILLed process and a clean exit both count as
// complete if (and only if) every index of the shard is committed.
func (c *Coordinator) settle(table *Table, lease Lease, runErr error) error {
	tail := c.tails[lease.K]
	if err := tail.poll(); err != nil {
		// A committed line the reader refuses: resume cannot fix this, so
		// retrying the lease would loop. Abort loudly.
		return fmt.Errorf("fleet: shard %d/%d log unusable: %w", lease.K, lease.N, err)
	}
	if tail.complete() {
		// Complete refuses only a stale epoch: the lease expired and the
		// shard was re-granted, so the late result is discarded (the log
		// itself is still fine — the current leaseholder resumes it and
		// will find nothing left to do).
		_ = table.Complete(lease.K, lease.Epoch)
		return nil
	}
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
