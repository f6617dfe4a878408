package mptcpsim

import (
	"errors"
	"fmt"
	"io"
	"os"
)

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

	header RunLogHeader
}

// Sink returns the LogSink that appends to the log, fsyncing File every
// syncEvery records (0 = the library default). It writes the header only
// when the file does not hold one yet.
func (l *ShardLog) Sink(syncEvery int) (*LogSink, error) {
	return NewLogSink(l.File, l.header,
		LogOptions{Sync: l.File.Sync, Resume: l.HeaderOnDisk, SyncEvery: syncEvery})
}

// OpenShardLog opens the shard run-log at path for writing, resuming
// whatever a previous writer left behind: a missing or empty file (or one
// torn inside its header) starts fresh; a committed log is validated
// against header's digest and shard shape, has any torn trailing record
// truncated, and yields the already-committed indices as the skip set.
// With truncate set, existing content is discarded first — the fresh-log
// form of the same open.
func OpenShardLog(path string, header RunLogHeader, truncate bool) (*ShardLog, error) {
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
	log, err := ReadRunLog(f)
	if errors.Is(err, ErrHeaderTorn) {
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
func ReadShardLog(path string) (*RunLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	log, err := ReadRunLog(f)
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
// shard of want's grid: the rule resume applies before trusting a log's
// records. Worker and Lease are provenance and are not compared.
func sameShard(path string, got, want RunLogHeader) error {
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
