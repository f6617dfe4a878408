package fleet

import (
	"context"
	"io"
	"os/exec"
	"strconv"
)

// Runner executes one leased shard to completion: by the time Run returns
// nil, the shard's run-log in the spool should be complete (header plus
// every index of the shard committed). The coordinator trusts the log, not
// the error — it verifies the log after every return, so a Runner whose
// process was SIGKILLed simply returns the wait error and the next lease
// resumes the log. Run must honour ctx: the coordinator cancels it at the
// lease deadline, and a runner that keeps writing past cancellation risks
// interleaving with its replacement.
type Runner interface {
	Run(ctx context.Context, lease Lease) error
}

// ExecRunner runs each lease as a local `sweep` worker process:
//
//	sweep -grid g.json -shard k/n -resume <spool>/shard-k-of-n.ndjson -q
//
// Always -resume: on a fresh shard the log does not exist yet and resume
// of an empty file is exactly a fresh stream, while on a re-lease it skips
// everything the dead worker committed. The lease's worker id and epoch
// are stamped into the log header as provenance. Cancellation kills the
// process (SIGKILL via CommandContext), which is also the crash the
// resume path is built for.
type ExecRunner struct {
	// Bin is the sweep binary; GridPath the -grid argument ("" = the
	// built-in paper grid).
	Bin      string
	GridPath string
	// Workers is each worker process's -workers.
	Workers int
	// Spool is the shared spool directory.
	Spool string
	// Stderr, when set, receives every worker's stderr (progress lines are
	// suppressed with -q; what remains is diagnostics).
	Stderr io.Writer
}

func (r *ExecRunner) Run(ctx context.Context, lease Lease) error {
	args := []string{
		"-shard", strconv.Itoa(lease.K) + "/" + strconv.Itoa(lease.N),
		"-resume", ShardLogPath(r.Spool, lease.K, lease.N),
		"-q",
		"-worker-id", lease.Worker,
		"-lease", strconv.Itoa(lease.Epoch),
	}
	if r.GridPath != "" {
		args = append(args, "-grid", r.GridPath)
	}
	if r.Workers > 0 {
		args = append(args, "-workers", strconv.Itoa(r.Workers))
	}
	cmd := exec.CommandContext(ctx, r.Bin, args...)
	cmd.Stderr = r.Stderr
	return cmd.Run()
}
