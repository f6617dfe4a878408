package mptcpsim

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenShardLog walks the one open-or-resume routine `sweep -resume` and
// the fleet's Worker both stand on through every state a previous writer can leave
// behind. A hand-written log stands in for a real one: the routine reads
// structure, never results.
func TestOpenShardLog(t *testing.T) {
	header := RunLogHeader{GridDigest: "aaaaaaaaaaaaaaaa", K: 1, N: 2, Total: 6}
	var clean bytes.Buffer
	sink, err := NewLogSink(&clean, header, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, index := range []int{1, 5} {
		run := RunSummary{Index: index}
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
		open     RunLogHeader
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
