package fleet

import "context"

// Runner executes one leased shard to completion: by the time Run returns
// nil, the shard's run-log in the spool should be complete (header plus
// every index of the shard committed). The coordinator trusts the log, not
// the error — it verifies the log after every return, so a Runner that
// died mid-shard simply returns its error and the next lease resumes the
// log. Run must honour ctx: the coordinator cancels it at the lease
// deadline, and a runner that keeps writing past cancellation risks
// interleaving with its replacement.
type Runner interface {
	Run(ctx context.Context, lease Lease) error
}
