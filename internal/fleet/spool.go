package fleet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"mptcpsim"
)

// ShardLogPath is the canonical spool location of shard k of n's run-log.
// The name is a pure function of the shard coordinates, so a re-leased
// worker resumes exactly the file its predecessor was writing, and anything
// that can write this file under the lease protocol can join the fleet.
func ShardLogPath(spool string, k, n int) string {
	return filepath.Join(spool, fmt.Sprintf("shard-%d-of-%d.ndjson", k, n))
}

// shardTail follows one shard's run-log while workers append to it — the
// coordinator's completion test and its merge source. The log is read by
// RunLog.Follow under ReadRunLog's rules, so only committed records count,
// a torn tail is simply not yet visible, and a log cut back below what was
// read is read again from the start. A header that is not the fleet's
// (another grid or shard shape) is an error, never a merge input.
type shardTail struct {
	path string
	want mptcpsim.RunLogHeader
	log  mptcpsim.RunLog
}

func newShardTail(path string, want mptcpsim.RunLogHeader) *shardTail {
	return &shardTail{path: path, want: want}
}

// poll reads the records committed since the last poll into the log. A
// missing file or a torn header is not an error: the shard's writer has
// not committed anything yet. A committed line ReadRunLog would refuse is
// an error on every poll, returned after the runs before it are kept.
func (t *shardTail) poll() error {
	f, err := os.Open(t.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = t.log.Follow(f)
	switch {
	case errors.Is(err, mptcpsim.ErrHeaderTorn):
		return nil
	case t.log.Header == (mptcpsim.RunLogHeader{}):
		return fmt.Errorf("%s: %w", t.path, err) // no header committed, an error met
	}
	if !t.ours() {
		h := t.log.Header
		t.log = mptcpsim.RunLog{} // another grid's records are never merged
		return fmt.Errorf("%s: run-log is shard %d/%d of %d runs of grid %.12s, the fleet's is shard %d/%d of %d runs of grid %.12s",
			t.path, h.K, h.N, h.Total, h.GridDigest, t.want.K, t.want.N, t.want.Total, t.want.GridDigest)
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", t.path, err)
	}
	return err
}

// ours reports whether the log's header is the fleet's shard of the
// fleet's grid. Worker and Lease are provenance and are not compared.
func (t *shardTail) ours() bool {
	h := t.log.Header
	return h.GridDigest == t.want.GridDigest && h.K == t.want.K && h.N == t.want.N && h.Total == t.want.Total
}

// complete reports whether the last poll found the whole shard committed:
// the fleet's header, no torn tail, and a record for every index of the
// shard.
func (t *shardTail) complete() bool {
	size := mptcpsim.Shard{K: t.want.K, N: t.want.N}.Size(t.want.Total)
	return t.ours() && !t.log.Torn() && len(t.log.Runs) == size
}

// shardResult is the log read so far as MergeShards' input.
func (t *shardTail) shardResult() *mptcpsim.ShardResult {
	return t.log.ShardResult()
}
