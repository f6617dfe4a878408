package fleet

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mptcpsim"
)

// TestOpenShardLog walks the one open-or-resume routine `sweep -resume` and
// Worker both stand on through every state a previous writer can leave
// behind. A hand-written log stands in for a real one: the routine reads
// structure, never results.
func TestOpenShardLog(t *testing.T) {
	header := mptcpsim.RunLogHeader{GridDigest: "aaaaaaaaaaaaaaaa", K: 1, N: 2, Total: 6}
	var clean bytes.Buffer
	sink, err := mptcpsim.NewLogSink(&clean, header, mptcpsim.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, index := range []int{1, 5} {
		run := mptcpsim.RunSummary{Index: index}
		if index == 5 {
			run.Err = "boom"
		}
		if err := sink.Accept(i+1, 3, run, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	raw := clean.Bytes()
	headerLen := bytes.IndexByte(raw, '\n') + 1
	lastStart := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1

	other := header
	other.GridDigest = "bbbbbbbbbbbbbbbb"
	reshaped := header
	reshaped.K = 0

	cases := []struct {
		name     string
		content  []byte // nil = no file
		open     mptcpsim.RunLogHeader
		truncate bool
		wantErr  string
		want     ShardLog // File ignored
		wantSize int      // bytes left on disk
	}{
		{name: "absent file", open: header, want: ShardLog{TornTail: -1}},
		{name: "empty file", content: []byte{}, open: header, want: ShardLog{TornTail: -1}},
		{name: "torn header", content: raw[:headerLen-1], open: header,
			want: ShardLog{TornTail: -1, HeaderTorn: true}},
		{name: "torn tail", content: raw[:lastStart+3], open: header,
			want:     ShardLog{Skip: map[int]bool{1: true}, HeaderOnDisk: true, TornTail: int64(lastStart)},
			wantSize: lastStart},
		{name: "digest mismatch", content: raw, open: other, wantErr: "grid digest"},
		{name: "shape mismatch", content: raw, open: reshaped, wantErr: "shard 1/2 of 6"},
		{name: "clean resume", content: raw, open: header,
			want:     ShardLog{Skip: map[int]bool{1: true, 5: true}, Errs: 1, HeaderOnDisk: true, TornTail: -1},
			wantSize: len(raw)},
		{name: "fresh over an old log", content: raw, open: other, truncate: true, want: ShardLog{TornTail: -1}},
		{name: "mid-file corruption", content: append(append([]byte{}, raw[:headerLen]...), "{broken\n{}\n"...),
			open: header, wantErr: "run-log record"},
		{name: "not a run-log", content: []byte("\nimportant notes\nmore\n"), open: header, wantErr: "run-log header"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "shard.ndjson")
			if tc.content != nil {
				if err := os.WriteFile(path, tc.content, 0o666); err != nil {
					t.Fatal(err)
				}
			}
			log, err := OpenShardLog(path, tc.open, tc.truncate)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), path) {
					t.Fatalf("err = %v, want it to name %s and mention %q", err, path, tc.wantErr)
				}
				if got, _ := os.ReadFile(path); !bytes.Equal(got, tc.content) {
					t.Fatal("a refused log was modified")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer log.File.Close()
			if len(log.Skip) != len(tc.want.Skip) {
				t.Fatalf("skip set %v, want %v", log.Skip, tc.want.Skip)
			}
			for index := range tc.want.Skip {
				if !log.Skip[index] {
					t.Fatalf("skip set %v, want %v", log.Skip, tc.want.Skip)
				}
			}
			if log.Errs != tc.want.Errs || log.HeaderOnDisk != tc.want.HeaderOnDisk ||
				log.TornTail != tc.want.TornTail || log.HeaderTorn != tc.want.HeaderTorn {
				t.Fatalf("found %+v, want %+v", *log, tc.want)
			}
			// The file is cut back to its committed records and positioned
			// to append after them.
			pos, err := log.File.Seek(0, io.SeekCurrent)
			if err != nil {
				t.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if int(st.Size()) != tc.wantSize || int(pos) != tc.wantSize {
				t.Fatalf("file is %d bytes with the write position at %d, want both at %d", st.Size(), pos, tc.wantSize)
			}
		})
	}
}

// TestUnknownFieldRecordIsNotProgress: the coordinator's live tail reads a
// shard log under ReadRunLog's record grammar, so a committed record with a
// field no schema has is an error to both readers, and the tail never
// counts it — not on the poll that meets it, nor on any later one.
func TestUnknownFieldRecordIsNotProgress(t *testing.T) {
	var log bytes.Buffer
	header := mptcpsim.RunLogHeader{GridDigest: "aaaaaaaaaaaaaaaa", K: 0, N: 1, Total: 2}
	sink, err := mptcpsim.NewLogSink(&log, header, mptcpsim.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Accept(1, 2, mptcpsim.RunSummary{Index: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	log.WriteString(`{"run":{"index":1,"err":"boom"},"extra":1}` + "\n")
	path := filepath.Join(t.TempDir(), "shard.ndjson")
	if err := os.WriteFile(path, log.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}

	if _, err := ReadShardLog(path); err == nil || !strings.Contains(err.Error(), `unknown field "extra"`) {
		t.Fatalf("ReadShardLog: err = %v, want the unknown field refused", err)
	}
	tail := newShardTail(path, header)
	for poll, wantDone := range []int{1, 0} {
		done, failed, err := tail.poll()
		if err == nil || !strings.Contains(err.Error(), `unknown field "extra"`) {
			t.Fatalf("poll %d: err = %v, want the unknown field refused", poll, err)
		}
		if done != wantDone || failed != 0 {
			t.Fatalf("poll %d counted %d runs (%d failed), want %d (0 failed)", poll, done, failed, wantDone)
		}
	}
	if runs := tail.log.Runs; len(runs) != 1 || runs[0].Run.Index != 0 || runs[0].Run.Err != "" {
		t.Fatalf("tail kept %+v, want only the good record", runs)
	}
}

// TestRepeatedIndexIsRefusedLive: a shard log that commits an index twice
// is not a single-writer log. The coordinator's live tail refuses it with
// ReadRunLog's own error, on every poll, and counts the index once.
func TestRepeatedIndexIsRefusedLive(t *testing.T) {
	var log bytes.Buffer
	header := mptcpsim.RunLogHeader{GridDigest: "aaaaaaaaaaaaaaaa", K: 0, N: 1, Total: 3}
	sink, err := mptcpsim.NewLogSink(&log, header, mptcpsim.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, index := range []int{0, 1, 0} {
		if err := sink.Accept(i+1, 3, mptcpsim.RunSummary{Index: index}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.ndjson")
	if err := os.WriteFile(path, log.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}

	const twice = "records index 0 twice"
	if _, err := ReadShardLog(path); err == nil || !strings.Contains(err.Error(), twice) {
		t.Fatalf("ReadShardLog: err = %v, want %q", err, twice)
	}
	tail := newShardTail(path, header)
	for poll, wantDone := range []int{2, 0} {
		done, _, err := tail.poll()
		if err == nil || !strings.Contains(err.Error(), twice) {
			t.Fatalf("poll %d: err = %v, want %q", poll, err, twice)
		}
		if done != wantDone {
			t.Fatalf("poll %d counted %d runs, want %d", poll, done, wantDone)
		}
	}
	if complete, err := tail.complete(); complete || err == nil {
		t.Fatalf("complete() = %v, %v; want the repeated index refused", complete, err)
	}
}
