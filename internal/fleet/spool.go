package fleet

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"mptcpsim"
)

// ShardLogPath is the canonical spool location of shard k of n's run-log.
// The name is a pure function of the shard coordinates, so a re-leased
// worker resumes exactly the file its predecessor was writing, and anything
// that can write this file under the lease protocol can join the fleet.
func ShardLogPath(spool string, k, n int) string {
	return filepath.Join(spool, fmt.Sprintf("shard-%d-of-%d.ndjson", k, n))
}

// ShardLog is a shard run-log opened for appending, with what resuming it
// found on disk.
type ShardLog struct {
	// File is positioned at the end of the committed records.
	File *os.File
	// Skip holds the run indices already committed — the resume skip set —
	// and Errs counts the failed runs among them.
	Skip map[int]bool
	Errs int
	// HeaderOnDisk reports a committed header is already present; Sink
	// then appends records only.
	HeaderOnDisk bool
	// TornTail is the offset at which a torn trailing record was cut off
	// (its run will be re-executed), -1 when the log ended cleanly.
	// HeaderTorn reports the file held only part of a header line: it
	// recorded nothing and was emptied, so the whole shard re-executes.
	TornTail   int64
	HeaderTorn bool

	header mptcpsim.RunLogHeader
}

// Sink returns the LogSink that appends to the log, fsyncing File every
// syncEvery records (0 = the library default). It writes the header only
// when the file does not hold one yet.
func (l *ShardLog) Sink(syncEvery int) (*mptcpsim.LogSink, error) {
	return mptcpsim.NewLogSink(l.File, l.header,
		mptcpsim.LogOptions{Sync: l.File.Sync, Resume: l.HeaderOnDisk, SyncEvery: syncEvery})
}

// OpenShardLog opens the shard run-log at path for writing, resuming
// whatever a previous writer left behind: a missing or empty file (or one
// torn inside its header) starts fresh; a committed log is validated
// against header's digest and shard shape, has any torn trailing record
// truncated, and yields the already-committed indices as the skip set.
// With truncate set, existing content is discarded first — the fresh-log
// form of the same open.
func OpenShardLog(path string, header mptcpsim.RunLogHeader, truncate bool) (*ShardLog, error) {
	flags := os.O_RDWR | os.O_CREATE
	if truncate {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o666)
	if err != nil {
		return nil, err
	}
	sl := &ShardLog{File: f, TornTail: -1, header: header}
	fail := func(e error) (*ShardLog, error) {
		f.Close()
		return nil, e
	}
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	if st.Size() == 0 {
		return sl, nil
	}
	log, err := mptcpsim.ReadRunLog(f)
	if errors.Is(err, mptcpsim.ErrHeaderTorn) {
		// The previous writer died inside the header: nothing committed,
		// nothing to resume.
		if err := f.Truncate(0); err != nil {
			return fail(err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fail(err)
		}
		sl.HeaderTorn = true
		return sl, nil
	}
	if err != nil {
		return fail(fmt.Errorf("%s: %w", path, err))
	}
	if err := sameShard(path, log.Header, header); err != nil {
		return fail(err)
	}
	if log.Torn() {
		if err := f.Truncate(log.TornTail); err != nil {
			return fail(err)
		}
		sl.TornTail = log.TornTail
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return fail(err)
	}
	sl.Skip, sl.Errs, sl.HeaderOnDisk = log.Indices(), log.Errs(), true
	return sl, nil
}

// ReadShardLog reads the finished run-log at path for merging. A merge
// trusts only committed, complete logs, so anything else is refused naming
// the file and the way out: a log still torn at its tail must be finished
// with -resume first, and a file that does not parse as a run-log at all
// has to be produced again.
func ReadShardLog(path string) (*mptcpsim.RunLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	log, err := mptcpsim.ReadRunLog(f)
	if err != nil {
		return nil, fmt.Errorf("%s is not a usable run-log (%w); re-run that shard with -stream", path, err)
	}
	if log.Torn() {
		return nil, fmt.Errorf("%s: torn trailing record at byte %d — its writer was interrupted or is still running; finish it with -resume %s before merging",
			path, log.TornTail, path)
	}
	return log, nil
}

// sameShard refuses a run-log header, read from path, that is not want's
// shard of want's grid: the one rule resume and the fleet's tails apply
// before trusting a log's records. Worker and Lease are provenance and are
// not compared.
func sameShard(path string, got, want mptcpsim.RunLogHeader) error {
	if got.GridDigest != want.GridDigest {
		return fmt.Errorf("%s: run-log grid digest %.12s does not match this sweep's %.12s (different grid, -check setting or library version, or a stale spool?); resume with the original settings or start a fresh log",
			path, got.GridDigest, want.GridDigest)
	}
	if got.K != want.K || got.N != want.N || got.Total != want.Total {
		return fmt.Errorf("%s: run-log is shard %d/%d of %d runs, this sweep is shard %d/%d of %d; resume with the original shard",
			path, got.K, got.N, got.Total, want.K, want.N, want.Total)
	}
	return nil
}

// shardTail follows one shard's run-log while workers append to it — the
// coordinator's live progress feed and its completion and merge source.
// The log is read by RunLog.Follow under ReadRunLog's rules, so only
// committed records count, a torn tail is simply not yet visible, and a
// log cut back below what was read is read again from the start. A header
// that is not the fleet's (another grid or shard shape) is an error, never
// progress. counted holds every index ever reported as progress, so a
// record read again after a shrink is never counted twice.
type shardTail struct {
	mu      sync.Mutex
	path    string
	want    mptcpsim.RunLogHeader
	log     mptcpsim.RunLog
	err     error
	counted map[int]bool
}

func newShardTail(path string, want mptcpsim.RunLogHeader) *shardTail {
	return &shardTail{path: path, want: want, counted: make(map[int]bool)}
}

// poll follows the log and returns how many runs it found that were never
// counted before (and how many of them failed). A missing file or a torn
// header is zero progress, not an error: the shard's writer has not
// committed anything yet. A committed line ReadRunLog would refuse is an
// error on every poll, returned after the runs before it are counted.
func (t *shardTail) poll() (newDone, newFailed int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var recs []mptcpsim.RunRecord
	recs, t.err = t.follow()
	for _, rec := range recs {
		if !t.counted[rec.Run.Index] {
			t.counted[rec.Run.Index] = true
			newDone++
			if rec.Run.Err != "" {
				newFailed++
			}
		}
	}
	return newDone, newFailed, t.err
}

// follow reads the records committed since the last poll into the log.
func (t *shardTail) follow() ([]mptcpsim.RunRecord, error) {
	f, err := os.Open(t.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := t.log.Follow(f)
	switch {
	case errors.Is(err, mptcpsim.ErrHeaderTorn):
		return nil, nil
	case t.log.Header == (mptcpsim.RunLogHeader{}):
		return nil, fmt.Errorf("%s: %w", t.path, err) // no header committed, an error met
	}
	if herr := sameShard(t.path, t.log.Header, t.want); herr != nil {
		t.log = mptcpsim.RunLog{} // another grid's records are never progress
		return nil, herr
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", t.path, err)
	}
	return recs, err
}

// complete reports whether the last poll found the whole shard committed:
// the fleet's header, no torn tail, and a record for every index of the
// shard. An error of that poll is returned instead: resume cannot repair
// the log, so the lease must not be retried.
func (t *shardTail) complete() (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return false, t.err
	}
	size := mptcpsim.Shard{K: t.want.K, N: t.want.N}.Size(t.want.Total)
	return sameShard(t.path, t.log.Header, t.want) == nil && !t.log.Torn() && len(t.log.Runs) == size, nil
}

// shardResult is the log read so far as MergeShards' input.
func (t *shardTail) shardResult() *mptcpsim.ShardResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.log.ShardResult()
}

// feed hands every run the tail has read to sink, under the tail's lock.
func (t *shardTail) feed(sink *mptcpsim.MemorySink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range t.log.Runs {
		sink.Accept(0, 0, rec.Run, nil)
	}
}
