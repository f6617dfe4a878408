package mptcpsim

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzLoadNetwork asserts the scenario format's contract on arbitrary
// input: neither the parse nor the build ever panics, and a network that
// builds is whole — every declared path runs from the source to the
// destination, and the events it echoes are the file's, in firing order.
func FuzzLoadNetwork(f *testing.F) {
	seed := func(sf *ScenarioFile) []byte {
		js, err := json.Marshal(sf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
		return js
	}
	paper := seed(PaperScenario())
	dynamic := PaperScenario()
	dynamic.Events = []ScenarioEvent{
		{AtMs: 500, Type: EventLossBurst, A: "s", B: "v1", Loss: 0.3, DurationMs: 100},
		{AtMs: 1000, Type: EventSetRate, A: "v3", B: "v4", Mbps: 20},
		{AtMs: 2000, Type: EventLinkDown, A: "s", B: "v1"},
		{AtMs: 3000, Type: EventLinkUp, A: "s", B: "v1"},
	}
	dynamic.Links[0].Loss = 0.01
	dynamic.Links[1].QueueBytes = 32768
	dynamic.Paths[0].Name = "upper"
	seed(dynamic)
	f.Add([]byte(`{"links":[{"a":"s","b":"d","mbps":1e308,"delay_ms":1}],` +
		`"endpoints":{"src":"s","dst":"d"},"paths":[{"nodes":["s","d"]}]}`))
	f.Add([]byte(`{"links":[{"a":"s","b":"d","mbps":10,"delay_ms":1}],` +
		`"endpoints":{"src":"s","dst":"d"},"paths":[{"nodes":["s","d"]}],` +
		`"events":[{"at_ms":1e300,"type":"link_down","a":"s","b":"d"}]}`))
	// Trailing data: two scenarios concatenated, a scenario and garbage.
	f.Add(append(append([]byte{}, paper...), paper...))
	f.Add(append(append([]byte{}, paper...), " garbage"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := LoadScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		nw, err := sf.Build()
		if err != nil {
			return
		}
		if nw.NumPaths() != len(sf.Paths) {
			t.Fatalf("built %d paths of %d", nw.NumPaths(), len(sf.Paths))
		}
		for i, p := range nw.paths {
			if !p.Valid(nw.graph) || p.Nodes[0] != nw.src || p.Nodes[len(p.Nodes)-1] != nw.dst {
				t.Fatalf("path %d (%s) does not run from the source to the destination", i+1, nw.PathDescription(i+1))
			}
		}
		if len(nw.events) != len(sf.Events) || nw.tl.Len() != len(sf.Events) {
			t.Fatalf("built %d events (%d on the timeline) of %d", len(nw.events), nw.tl.Len(), len(sf.Events))
		}
		for i := 1; i < len(nw.events); i++ {
			if millis(nw.events[i].AtMs) < millis(nw.events[i-1].AtMs) {
				t.Fatalf("events out of firing order: %v before %v", nw.events[i-1], nw.events[i])
			}
		}
	})
}

// FuzzReadRunLog asserts the run-log reader's contract on arbitrary input:
// parsing never panics; a log it accepts converts to a ShardResult that
// re-encodes through LogSink into a clean log reading back equal; and a
// reported torn tail starts on a record boundary, so resume's
// truncation there leaves exactly the committed records.
func FuzzReadRunLog(f *testing.F) {
	twoRuns := &Grid{CCs: []string{"cubic"}, Orders: [][]int{{2, 1, 3}}, Seeds: []int64{1, 2}, DurationMs: 50}
	raw := streamToLog(f, &Sweep{Workers: 1}, twoRuns, LogOptions{})
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) != 4 { // header, two records, SplitAfter's empty tail
		f.Fatalf("seed log has %d lines, want header + 2 records", len(lines)-1)
	}
	lastStart := len(raw) - len(lines[2])
	f.Add(raw)
	f.Add(raw[:lastStart+len(lines[2])/2]) // torn tail: cut inside the final record
	f.Add(raw[:len(raw)-1])                // torn tail: final record complete but uncommitted
	f.Add(raw[:len(lines[0])/2])           // torn header
	f.Add(raw[:len(lines[0])])             // committed empty log

	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadRunLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		if log.Torn() {
			cut := log.TornTail
			if cut <= 0 || cut >= int64(len(data)) || data[cut-1] != '\n' {
				t.Fatalf("torn tail at %d of %d bytes is not a record boundary", cut, len(data))
			}
			committed, err := ReadRunLog(bytes.NewReader(data[:cut]))
			if err != nil || committed.Torn() || len(committed.Runs) != len(log.Runs) {
				t.Fatalf("log truncated at its torn tail: err=%v, want a clean log of %d records", err, len(log.Runs))
			}
		}

		sr := log.ShardResult()
		var buf bytes.Buffer
		sink, err := NewLogSink(&buf, RunLogHeader{GridDigest: sr.GridDigest, K: sr.K, N: sr.N, Total: sr.Total}, LogOptions{})
		if err != nil {
			t.Fatalf("writer refuses a header the reader accepted: %v", err)
		}
		for i, run := range sr.Runs {
			if err := sink.Accept(i+1, len(sr.Runs), run, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadRunLog(bytes.NewReader(buf.Bytes()))
		if err != nil || back.Torn() {
			t.Fatalf("re-encoded log does not read back clean: err=%v\n%s", err, buf.Bytes())
		}
		want, err := json.Marshal(sr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(back.ShardResult())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("re-encoded log reads back different:\nfirst:  %s\nsecond: %s", want, got)
		}
	})
}

// FuzzLoadGrid asserts the grid format's contract on arbitrary input:
// parsing never panics; a spec it accepts either fails expansion with an
// error or expands to at most the product of its axis lengths (scenario
// filters only ever remove cells); and expansion is a pure function of the
// spec — two expansions digest equally.
func FuzzLoadGrid(f *testing.F) {
	ci, err := os.ReadFile("cmd/sweep/testdata/ci-shard-grid.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ci)
	// cmd/sweep's default grid.
	f.Add([]byte(`{"ccs":["lia","olia","balia","cubic","reno","wvegas"],"orders":[[2,1,3],[1,2,3],[3,1,2],[1,3,2]]}`))
	// A scoped perturbation and event set over two named scenarios.
	f.Add([]byte(`{"scenarios":[{"name":"a","paper":true},{"name":"b","paper":true}],` +
		`"perturbations":[{"name":"base"},{"name":"lossy","scenarios":["a"],"loss":0.01,` +
		`"links":[{"a":"s","b":"v1","mbps":20}]}],` +
		`"events":[{"name":"static"},{"scenarios":["b"],"events":[{"at_ms":100,"type":"set_rate","a":"v3","b":"v4","mbps":20}]}]}`))
	// One spec per axis error, then trailing data after a valid spec.
	for _, spec := range []string{
		`{"ccs":["cubci"]}`,
		`{"schedulers":["blast"]}`,
		`{"schedulers":["rr","roundrobin"]}`,
		`{"orders":[[2,2,1]]}`,
		`{"orders":[[9,1,2]]}`,
		`{"seeds":[0,1]}`,
		`{"scenarios":[{"file":"net.json"}]}`,
		`{"scenarios":[{}]}`,
		`{"scenarios":[{"paper":true},{"name":"paper","paper":true}]}`,
		`{"perturbations":[{"name":"p","scenarios":["nope"]}]}`,
		`{"perturbations":[{"name":"p","loss":-1}]}`,
		`{"perturbations":[{"name":"p","links":[{"a":"s","b":"zz","mbps":1}]}]}`,
		`{"scenarios":[{"name":"a","paper":true},{"name":"b","paper":true}],"events":[{"name":"e","scenarios":["a"]}]}`,
		`{"events":[{"name":"e","events":[{"at_ms":100,"type":"link_up","a":"s","b":"v1"}]}]}`,
		`{"sample_ms":1e-6}`,
		`{"duration_ms":1e300}`,
		`{"cc":["cubic"]}`,
		`{"ccs":["olia"]} {"ccs":["cubic"]}`,
		`{"ccs":["olia"]} garbage`,
	} {
		f.Add([]byte(spec))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := LoadGrid(bytes.NewReader(data))
		if err != nil {
			return
		}
		bound := 1
		for _, n := range []int{len(g.Scenarios), len(g.Perturbations), len(g.Events),
			len(g.CCs), len(g.Schedulers), len(g.Orders), len(g.Seeds)} {
			if n > 1 {
				bound *= n
			}
			// A few hundred input bytes can spell a million-run cross
			// product; expanding it tests the allocator, not the parser.
			if bound > 4096 {
				t.Skip("cross product too large to expand per fuzz input")
			}
		}
		specs, err := g.Expand()
		if err != nil {
			return
		}
		if len(specs) == 0 || len(specs) > bound {
			t.Fatalf("expanded to %d runs, want 1..%d (the product of the axis lengths)", len(specs), bound)
		}
		for i, sp := range specs {
			if sp.Index != i {
				t.Fatalf("run %d carries index %d", i, sp.Index)
			}
		}
		d1, _, err1 := (&Sweep{}).Describe(g)
		d2, _, err2 := (&Sweep{}).Describe(g)
		if err1 != nil || err2 != nil || d1 != d2 {
			t.Fatalf("expansion is not stable: digests %q (%v) and %q (%v)", d1, err1, d2, err2)
		}
	})
}

// FuzzMergeInputs asserts the merge's contract on arbitrary mixes of
// valid, truncated and corrupted run-logs: whatever three files are handed
// to ReadRunLog → ShardResult → MergeShards, a merge that succeeds holds
// every index of the grid exactly once, each run supplied by the shard
// that owns it. A file the reader refuses is left out; a torn one
// contributes its committed records.
func FuzzMergeInputs(f *testing.F) {
	fourRuns := &Grid{CCs: []string{"cubic"}, Orders: [][]int{{2, 1, 3}}, Seeds: []int64{1, 2, 3, 4}, DurationMs: 50}
	sw := &Sweep{Workers: 1}
	whole := streamToLog(f, sw, fourRuns, LogOptions{})
	s0 := streamShardToLog(f, sw, fourRuns, Shard{K: 0, N: 2}, LogOptions{})
	s1 := streamShardToLog(f, sw, fourRuns, Shard{K: 1, N: 2}, LogOptions{})
	header := bytes.IndexByte(s1, '\n') + 1
	f.Add(s0, s1, []byte(nil))
	f.Add(s1, []byte(nil), s0)
	f.Add(whole, []byte(nil), []byte(nil))
	f.Add(s0, s0, s1)                             // a shard supplied twice
	f.Add(s0, []byte(nil), []byte(nil))           // a shard absent
	f.Add(whole, s0, s1)                          // shape mismatch
	f.Add(s0, s1[:header+(len(s1)-header)/4], s1) // torn inside a record, then the clean copy
	f.Add(s0, s1[:len(s1)-1], []byte(nil))        // final record uncommitted
	f.Add(s0, s1[:header/2], []byte(nil))         // torn header
	f.Add(s0, s1[:header], []byte(nil))           // committed empty shard
	// Corrupted: a run in the wrong shard, a header claiming another total.
	f.Add(s0, bytes.Replace(s1, []byte(`"index":1,`), []byte(`"index":2,`), 1), []byte(nil))
	f.Add(s0, bytes.Replace(s1, []byte(`"total":4`), []byte(`"total":5`), 1), []byte(nil))
	// A header's total is only a claim: 1e15 runs, four records.
	huge := func(log []byte) []byte {
		return bytes.Replace(log, []byte(`"total":4`), []byte(`"total":1000000000000000`), 1)
	}
	f.Add(huge(s0), huge(s1), []byte(nil))

	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		var shards []*ShardResult
		for _, data := range [][]byte{a, b, c} {
			log, err := ReadRunLog(bytes.NewReader(data))
			if err != nil {
				continue
			}
			shards = append(shards, log.ShardResult())
		}
		if len(shards) == 0 {
			return
		}
		res, err := MergeShards(shards...)
		if err != nil {
			return
		}
		if len(res.Runs) != shards[0].Total {
			t.Fatalf("merged %d runs of a %d-run grid", len(res.Runs), shards[0].Total)
		}
		for i, run := range res.Runs {
			if run.Index != i {
				t.Fatalf("merged run %d carries index %d", i, run.Index)
			}
			owned := false
			for _, sr := range shards {
				for _, r := range sr.Runs {
					owned = owned || (r.Index == i && sr.K == i%sr.N)
				}
			}
			if !owned {
				t.Fatalf("merged run %d was supplied by no shard that owns it", i)
			}
		}
	})
}
