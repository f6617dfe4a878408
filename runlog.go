package mptcpsim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
)

// RunLogVersion is the current run-log schema version, carried in every
// header so readers can refuse logs from a future schema loudly.
const RunLogVersion = 1

// DefaultSyncBatch is the LogSink fsync batch size: the number of records
// between durability barriers when LogOptions.SyncEvery is unset. A crash
// loses at most this many trailing records (plus one torn one), all of
// which resume re-executes.
const DefaultSyncBatch = 32

// RunLogHeader is the first NDJSON line of a run-log: the shard metadata
// (grid digest, shard coordinates, grid total) that MergeShards validates
// before trusting the log's records.
type RunLogHeader struct {
	// Version is the run-log schema version (RunLogVersion).
	Version int `json:"run_log"`
	// GridDigest is the canonical digest of the expanded grid (see
	// ShardResult.GridDigest); logs merge only when their digests agree.
	GridDigest string `json:"grid_digest"`
	// K and N are the shard coordinates (0/1 for a whole-grid sweep).
	K int `json:"k"`
	N int `json:"n"`
	// Total is the run count of the whole grid, not just this shard.
	Total int `json:"total"`
	// Worker and Lease are optional provenance, stamped by fleet.Worker
	// (which only bench/'s fleet pass runs): the id of the lease holder that
	// wrote the log and the lease epoch it held the shard under. Purely
	// diagnostic — resume and merge compare only the digest and shard
	// shape, so a re-leased shard's log may carry a different worker/lease
	// than the one that started it.
	Worker string `json:"worker,omitempty"`
	Lease  int    `json:"lease,omitempty"`
}

// Validate reports whether the header describes a usable run-log.
func (h RunLogHeader) Validate() error {
	if h.Version != RunLogVersion {
		return fmt.Errorf("mptcpsim: run-log version %d (this build reads %d)", h.Version, RunLogVersion)
	}
	if err := (Shard{K: h.K, N: h.N}).Validate(); err != nil {
		return err
	}
	if h.Total < 0 {
		return fmt.Errorf("mptcpsim: run-log reports negative total %d", h.Total)
	}
	return nil
}

// RunRecord is one NDJSON body line of a run-log: the canonical record of
// one completed run — the summary, which carries the global index and all
// cell labels.
type RunRecord struct {
	Run RunSummary `json:"run"`
}

// LogOptions configures a LogSink.
type LogOptions struct {
	// Sync, when set, is invoked at every durability barrier — after each
	// SyncEvery records, on Flush and on Close. Pass (*os.File).Sync for a
	// crash-durable log; leave nil for buffers and pipes.
	Sync func() error
	// SyncEvery is the number of records between durability barriers;
	// 0 means DefaultSyncBatch.
	SyncEvery int
	// Resume suppresses the header line: the sink appends to a log whose
	// header is already on disk.
	Resume bool
}

// LogSink streams one canonical NDJSON record per completed run — the
// append-only run-log behind flat-memory mega-sweeps. Records are written
// in completion order (consumers order by index; ReadRunLog plus
// MergeShards reproduces expansion order exactly), buffered, and fsync'd
// in batches when the destination supports it. Nothing is retained per
// run, so peak memory is flat in grid size.
type LogSink struct {
	w      *bufio.Writer
	enc    *json.Encoder
	opt    LogOptions
	since  int
	closed bool
}

// NewLogSink returns a sink writing the run-log to w. Unless opt.Resume is
// set, the header line is written (and synced) immediately, so even a
// sweep killed before its first completion leaves a resumable log.
func NewLogSink(w io.Writer, h RunLogHeader, opt LogOptions) (*LogSink, error) {
	if h.Version == 0 {
		h.Version = RunLogVersion
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	if opt.SyncEvery <= 0 {
		opt.SyncEvery = DefaultSyncBatch
	}
	bw := bufio.NewWriter(w)
	s := &LogSink{w: bw, enc: json.NewEncoder(bw), opt: opt}
	if !opt.Resume {
		if err := s.enc.Encode(h); err != nil {
			return nil, err
		}
		if err := s.barrier(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *LogSink) Accept(done, total int, sum RunSummary, full *Result) error {
	if s.closed {
		// A record appended past Close would land beyond the log's commit
		// mark and silently survive into merges; refuse instead.
		return fmt.Errorf("run-log sink: %w", ErrSinkClosed)
	}
	if err := s.enc.Encode(RunRecord{Run: sum}); err != nil {
		return err
	}
	s.since++
	if s.since >= s.opt.SyncEvery {
		return s.barrier()
	}
	return nil
}

// barrier flushes the buffer and, when configured, fsyncs.
func (s *LogSink) barrier() error {
	s.since = 0
	if err := s.w.Flush(); err != nil {
		return err
	}
	if s.opt.Sync != nil {
		return s.opt.Sync()
	}
	return nil
}

// Flush forces every buffered record onto the destination, through the
// fsync when one is configured.
func (s *LogSink) Flush() error {
	if s.closed {
		return fmt.Errorf("run-log sink: %w", ErrSinkClosed)
	}
	return s.barrier()
}

// Close finalises the log: a last durability barrier, after which the sink
// refuses further Accepts (and a second Close) with ErrSinkClosed. The
// underlying writer (typically a file the caller opened) stays open —
// closing it is the caller's job.
func (s *LogSink) Close() error {
	if s.closed {
		return fmt.Errorf("run-log sink: %w", ErrSinkClosed)
	}
	s.closed = true
	return s.barrier()
}

// ErrHeaderTorn reports a run-log cut before its header line was
// committed: an empty file, or header bytes with no terminating newline (a
// writer killed inside — or exactly at the end of — the header line).
// Such a file records nothing, so there is nothing to resume: callers that
// can re-execute should truncate the file and restart the shard from
// scratch; a merge must refuse it.
var ErrHeaderTorn = errors.New("run-log header torn, nothing to resume")

// RunLog is a parsed run-log: the header, every complete record, and the
// position of a torn trailing record if the log was cut mid-write.
type RunLog struct {
	Header RunLogHeader
	Runs   []RunRecord
	// TornTail is the byte offset where a torn (incomplete or
	// unterminated) final record begins, -1 when the log ends cleanly.
	// Resume truncates the file here and re-executes the torn run; a merge
	// must refuse the log until then.
	TornTail int64

	// committed is the length of the header and records read so far, where
	// the next Follow resumes; seen holds the records' indices.
	committed int64
	seen      map[int]bool
}

// Torn reports whether the log ends in a torn record.
func (l *RunLog) Torn() bool { return l.TornTail >= 0 }

// Indices returns the set of run indices the log records — the resume
// skip set.
func (l *RunLog) Indices() map[int]bool { return maps.Clone(l.seen) }

// Errs counts failed runs in the log.
func (l *RunLog) Errs() int {
	n := 0
	for _, rec := range l.Runs {
		if rec.Run.Err != "" {
			n++
		}
	}
	return n
}

// ShardResult converts the log into MergeShards' input, the validated
// merge path (digest agreement, exactly-once index coverage) every run-log
// goes through.
func (l *RunLog) ShardResult() *ShardResult {
	sr := &ShardResult{
		GridDigest: l.Header.GridDigest,
		K:          l.Header.K,
		N:          l.Header.N,
		Total:      l.Header.Total,
		Runs:       make([]RunSummary, len(l.Runs)),
	}
	for i, rec := range l.Runs {
		sr.Runs[i] = rec.Run
	}
	return sr
}

// ReadRunLog parses a run-log written by LogSink. A torn trailing record —
// the final line unparseable or missing its newline, the signature of a
// killed writer — is not an error: it is reported via TornTail so resume
// can truncate and rewrite it. A cut before the header's newline (including
// the empty file) is the ErrHeaderTorn case: the log records nothing and
// resume restarts from scratch. Corruption anywhere else (a bad mid-file
// line, a duplicate index, an unknown field) is an error: an append-only
// single-writer log never produces it, so it means the file is not what
// the caller thinks it is.
func ReadRunLog(r io.Reader) (*RunLog, error) {
	log := &RunLog{}
	if err := log.extend(r); err != nil {
		return nil, err
	}
	return log, nil
}

// Follow extends the log with the records committed to r since the last
// call and returns them (the new tail of Runs), so a reader can tail a log
// its writer is still appending to. A zero RunLog starts at byte 0, header
// included. If r has shrunk below what was already read — the file was cut
// back inside its committed records, which a crash of the machine or an
// outside hand can do — the log is read again from the start and every
// record is returned again. Each call applies ReadRunLog's rules: bytes
// after the last newline are a torn tail that the next call reads again,
// and a committed line ReadRunLog would refuse is an error, returned with
// the records before it and met again by every later call.
func (l *RunLog) Follow(r io.ReadSeeker) ([]RunRecord, error) {
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("mptcpsim: run-log: %w", err)
	}
	if size < l.committed {
		*l = RunLog{}
	}
	if _, err := r.Seek(l.committed, io.SeekStart); err != nil {
		return nil, fmt.Errorf("mptcpsim: run-log: %w", err)
	}
	from := len(l.Runs)
	err = l.extend(r)
	return l.Runs[from:], err
}

// extend reads r, positioned at byte l.committed of the log, to its end:
// the header if none is committed yet, then every committed record.
func (l *RunLog) extend(r io.Reader) error {
	br := bufio.NewReader(r)
	l.TornTail = -1
	for {
		line, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return fmt.Errorf("mptcpsim: run-log: %w", err)
		}
		if err == io.EOF {
			switch {
			case l.committed > 0:
				// An unterminated final line is the torn tail, even one that
				// parses: the trailing newline is the record's commit mark,
				// and re-running one run is cheaper than trusting an
				// uncommitted record.
				if len(line) > 0 {
					l.TornTail = l.committed
				}
				return nil
			case len(line) == 0:
				return fmt.Errorf("mptcpsim: run-log: empty file: %w", ErrHeaderTorn)
			default:
				// Header bytes without the newline commit mark: a writer
				// killed mid-header. Not a TornTail — that offset points at
				// a torn *record* after a committed header, and here no
				// header was committed at all.
				return fmt.Errorf("mptcpsim: run-log: header cut after %d bytes: %w", len(line), ErrHeaderTorn)
			}
		}
		if l.committed == 0 {
			// A committed first line, blank ones included, is a header or an
			// error: a file that is not a run-log must never pass for a torn
			// one, which resume would truncate.
			var h RunLogHeader
			if uerr := decodeStrict(bytes.NewReader(line), &h); uerr != nil {
				return fmt.Errorf("mptcpsim: run-log header: %w", uerr)
			}
			if verr := h.Validate(); verr != nil {
				return verr
			}
			l.Header = h
		} else {
			var rec RunRecord
			if uerr := decodeStrict(bytes.NewReader(line), &rec); uerr != nil {
				return fmt.Errorf("mptcpsim: run-log record %d: %w", len(l.Runs), uerr)
			}
			if l.seen[rec.Run.Index] {
				return fmt.Errorf("mptcpsim: run-log records index %d twice", rec.Run.Index)
			}
			if l.seen == nil {
				l.seen = make(map[int]bool)
			}
			l.seen[rec.Run.Index] = true
			l.Runs = append(l.Runs, rec)
		}
		l.committed += int64(len(line))
	}
}

// decodeStrict decodes the one JSON value r holds into v — the grammar of
// every file the library reads (run-log lines, grids, scenarios): an unknown
// field or anything but whitespace after the value is an error, so a file
// from a newer schema, or two files concatenated, fails loudly instead of
// loading with part of it silently dropped.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
}
