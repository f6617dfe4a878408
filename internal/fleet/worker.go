package fleet

import (
	"context"
	"sync"

	"mptcpsim"
)

// Worker executes leased shards in-process; it is the runner behind
// bench/'s fleet pass. Each Run opens (or resumes) the
// shard's spool run-log with mptcpsim.OpenShardLog, skips committed
// indices, and streams the rest through the library sweep, honouring the
// lease deadline via ctx.
type Worker struct {
	// Sweep executes the shard; its settings must match the coordinator's,
	// or the grid digests disagree. Grid is the fleet's grid. The first Run
	// describes the grid (expansion and digest, tens of milliseconds on a
	// screening grid) and every later lease reuses that answer, so neither
	// may change after the first Run.
	Sweep *mptcpsim.Sweep
	Grid  *mptcpsim.Grid
	// Spool is the shared spool directory.
	Spool string
	// SyncEvery is the run-log durability batch (0 = the library default).
	SyncEvery int
	// WrapSink, when set, wraps the shard's log sink — the crash-injection
	// seam for tests. The wrapper's error poisons the stream exactly like
	// a sink write failure.
	WrapSink func(lease Lease, sink mptcpsim.RunSink) mptcpsim.RunSink

	// describe guards digest, total and describeErr: leases run concurrently.
	describe    sync.Once
	digest      string
	total       int
	describeErr error
}

func (w *Worker) Run(ctx context.Context, lease Lease) error {
	w.describe.Do(func() { w.digest, w.total, w.describeErr = w.Sweep.Describe(w.Grid) })
	if w.describeErr != nil {
		return w.describeErr
	}
	header := mptcpsim.RunLogHeader{
		GridDigest: w.digest,
		K:          lease.K, N: lease.N,
		Total:  w.total,
		Worker: lease.Worker,
		Lease:  lease.Epoch,
	}
	log, err := mptcpsim.OpenShardLog(ShardLogPath(w.Spool, lease.K, lease.N), header, false)
	if err != nil {
		return err
	}
	defer log.File.Close()
	sink, err := log.Sink(w.SyncEvery)
	if err != nil {
		return err
	}
	chain := mptcpsim.RunSink(sink)
	if w.WrapSink != nil {
		chain = w.WrapSink(lease, chain)
	}
	// The deadline guard goes outermost so an expired lease stops
	// delivering (and flushing) immediately, before any injected fault.
	chain = &deadlineSink{ctx: ctx, next: chain}

	spec := mptcpsim.StreamSpec{
		Shard: mptcpsim.Shard{K: lease.K, N: lease.N},
		Skip:  func(index int) bool { return log.Skip[index] },
	}
	if err := w.Sweep.Stream(w.Grid, spec, chain); err != nil {
		return err
	}
	return log.File.Close()
}

// deadlineSink fails the stream once the lease context is done — which
// stops the shard's sweep at its next delivery, no further run starts —
// and, crucially, suppresses the final Close flush in that case: a worker
// whose lease expired must stop touching the log at once, because a
// replacement may already be appending to it. Losing the buffered,
// uncommitted records is exactly the crash semantics resume handles.
type deadlineSink struct {
	ctx  context.Context
	next mptcpsim.RunSink
}

func (d *deadlineSink) Accept(done, total int, s mptcpsim.RunSummary, full *mptcpsim.Result) error {
	if err := d.ctx.Err(); err != nil {
		return err
	}
	return d.next.Accept(done, total, s, full)
}

func (d *deadlineSink) Flush() error {
	if err := d.ctx.Err(); err != nil {
		return err
	}
	return d.next.Flush()
}

func (d *deadlineSink) Close() error {
	if err := d.ctx.Err(); err != nil {
		return err
	}
	return d.next.Close()
}
