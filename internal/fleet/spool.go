package fleet

import (
	"bytes"
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
	if log.Header.GridDigest != header.GridDigest {
		return fail(fmt.Errorf("%s: run-log grid digest %.12s does not match this sweep's %.12s (different grid, -check setting or library version, or a stale spool?); resume with the original settings or start a fresh log",
			path, log.Header.GridDigest, header.GridDigest))
	}
	if log.Header.K != header.K || log.Header.N != header.N || log.Header.Total != header.Total {
		return fail(fmt.Errorf("%s: run-log is shard %d/%d of %d runs, this sweep is shard %d/%d of %d; resume with the original shard",
			path, log.Header.K, log.Header.N, log.Header.Total, header.K, header.N, header.Total))
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

// shardTail incrementally reads committed records out of one shard's
// run-log while a worker appends to it — the coordinator's live-progress
// feed. Only complete lines (the trailing newline is the commit mark) are
// consumed; a torn tail is simply not yet visible. The header must be the
// fleet's: a log from another grid or shard shape is an error, never
// progress. If the file shrinks — a resumed worker truncating a torn
// record, or a header-torn restart — the tail re-reads from the start and
// the seen set keeps delivery exactly-once.
type shardTail struct {
	mu         sync.Mutex
	path       string
	want       mptcpsim.RunLogHeader
	offset     int64
	headerDone bool
	seen       map[int]bool
	runs       []mptcpsim.RunSummary
}

func newShardTail(path string, want mptcpsim.RunLogHeader) *shardTail {
	return &shardTail{path: path, want: want, seen: make(map[int]bool)}
}

// poll keeps the newly committed records and returns how many new runs
// (and how many of them failed) it saw. A missing file is zero progress,
// not an error: the shard's first lease has not started writing yet.
func (t *shardTail) poll() (newDone, newFailed int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Open(t.path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	if st.Size() < t.offset {
		// The log was cut back (torn-record or torn-header truncation by a
		// resuming worker). Committed records are never removed, so re-read
		// from the start and let the seen set drop duplicates.
		t.offset = 0
		t.headerDone = false
	}
	if st.Size() == t.offset {
		return 0, 0, nil
	}
	if _, err := f.Seek(t.offset, io.SeekStart); err != nil {
		return 0, 0, err
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		return 0, 0, err
	}
	for {
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			break // uncommitted tail: wait for the newline
		}
		line := raw[:nl+1]
		raw = raw[nl+1:]
		if !t.headerDone {
			if err := t.checkHeader(line); err != nil {
				return 0, 0, err
			}
			t.headerDone = true
			t.offset += int64(len(line))
			continue
		}
		rec, err := mptcpsim.DecodeRunRecord(line)
		if err != nil {
			// A committed line ReadRunLog would refuse means the file is not
			// the single-writer log we think it is; surface it, on every poll,
			// without counting it.
			return newDone, newFailed, fmt.Errorf("%s: tail record: %w", t.path, err)
		}
		t.offset += int64(len(line))
		if t.seen[rec.Run.Index] {
			continue
		}
		t.seen[rec.Run.Index] = true
		newDone++
		if rec.Run.Err != "" {
			newFailed++
		}
		t.runs = append(t.runs, rec.Run)
	}
	return newDone, newFailed, nil
}

// checkHeader parses a committed header line under ReadRunLog's grammar and
// refuses one that is not this shard of the fleet's grid.
func (t *shardTail) checkHeader(line []byte) error {
	log, err := mptcpsim.ReadRunLog(bytes.NewReader(line))
	if err != nil {
		return fmt.Errorf("%s: %w", t.path, err)
	}
	h := log.Header
	if h.GridDigest != t.want.GridDigest || h.K != t.want.K || h.N != t.want.N || h.Total != t.want.Total {
		return fmt.Errorf("%s: run-log is shard %d/%d of %d runs under grid digest %.12s, the fleet wants shard %d/%d of %d under %.12s (stale spool?)",
			t.path, h.K, h.N, h.Total, h.GridDigest, t.want.K, t.want.N, t.want.Total, t.want.GridDigest)
	}
	return nil
}

// feed hands every run the tail has kept to sink, under the tail's lock.
func (t *shardTail) feed(sink *mptcpsim.MemorySink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, run := range t.runs {
		sink.Accept(0, 0, run, nil)
	}
}
