package mptcpsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

// renderAll renders every serialisation of a sweep result — the formats
// the shard/merge contract promises are byte-identical to an unsharded
// run.
func renderAll(t *testing.T, res *SweepResult) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, 4)
	for name, fn := range map[string]func(w *bytes.Buffer) error{
		"json":   func(w *bytes.Buffer) error { return res.WriteJSON(w) },
		"csv":    func(w *bytes.Buffer) error { return res.WriteCSV(w) },
		"groups": func(w *bytes.Buffer) error { return res.WriteGroupsCSV(w) },
		"report": func(w *bytes.Buffer) error { return res.Report(w) },
	} {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// shardGrids are the property-test grids: a plain multi-seed grid, a grid
// exercising every label axis (perturbations, events, schedulers), and a
// grid whose runs all fail — failed cells must survive sharding too.
func shardGrids(short bool) map[string]*Grid {
	grids := map[string]*Grid{
		"static": {
			CCs:        []string{"cubic", "olia"},
			Orders:     [][]int{{2, 1, 3}},
			Seeds:      []int64{1, 2, 3},
			DurationMs: 200,
		},
		"errors": {
			CCs:        []string{"cubic", "olia"},
			DurationMs: 100,
			Base:       Options{CrossTCP: []int{9}},
		},
	}
	if !short {
		grids["axes"] = &Grid{
			CCs:        []string{"cubic", "lia"},
			Schedulers: []string{"minrtt", "roundrobin"},
			DurationMs: 300,
			Perturbations: []Perturbation{
				{Name: "base"},
				{Name: "lossy", Loss: 0.005},
			},
			Events: []EventSet{
				{Name: "static"},
				{Name: "outage", Events: []ScenarioEvent{
					{AtMs: 100, Type: EventLinkDown, A: "s", B: "v1"},
					{AtMs: 200, Type: EventLinkUp, A: "s", B: "v1"},
				}},
			},
		}
	}
	return grids
}

// TestShardMergeByteIdentical is the distributed-determinism contract:
// for every grid and every shard count, running the N shards
// independently (each round-tripped through its run-log, the disk format,
// and merged in arbitrary order) reproduces the unsharded SweepResult
// byte-identically in all four output formats.
func TestShardMergeByteIdentical(t *testing.T) {
	ns := []int{1, 2, 3, 5, 7}
	if testing.Short() {
		ns = []int{3}
	}
	for name, grid := range shardGrids(testing.Short()) {
		t.Run(name, func(t *testing.T) {
			full, err := (&Sweep{Workers: 4}).Run(grid)
			if err != nil {
				t.Fatal(err)
			}
			want := renderAll(t, full)
			for _, n := range ns {
				shards := make([]*ShardResult, 0, n)
				total := 0
				// Reverse K order: MergeShards must not care how the
				// shards are listed.
				for k := n - 1; k >= 0; k-- {
					sr := streamShard(t, &Sweep{Workers: 2}, grid, Shard{K: k, N: n})
					shards = append(shards, sr)
					total += len(sr.Runs)
				}
				if total != len(full.Runs) {
					t.Fatalf("n=%d: shards hold %d runs, grid has %d", n, total, len(full.Runs))
				}
				merged, err := MergeShards(shards...)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				got := renderAll(t, merged)
				for format, wantBytes := range want {
					if !bytes.Equal(got[format], wantBytes) {
						t.Errorf("n=%d: merged %s differs from unsharded output:\n--- merged ---\n%s\n--- unsharded ---\n%s",
							n, format, got[format], wantBytes)
					}
				}
			}
		})
	}
}

// TestRunShardDeterminism: a shard's result is bit-identical across
// worker counts and repeated executions, like the unsharded sweep.
func TestRunShardDeterminism(t *testing.T) {
	grid := &Grid{
		CCs:        []string{"cubic", "olia"},
		Seeds:      []int64{1, 2, 3},
		DurationMs: 200,
	}
	var outputs []string
	for _, workers := range []int{1, 8, 8} {
		mem := &MemorySink{}
		if err := (&Sweep{Workers: workers}).Stream(grid, StreamSpec{Shard: Shard{K: 1, N: 2}}, mem); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, string(renderAll(t, mem.Result())["json"]))
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("shard result differs between 1 and 8 workers:\n--- w1 ---\n%s\n--- w8 ---\n%s",
			outputs[0], outputs[1])
	}
	if outputs[1] != outputs[2] {
		t.Fatal("shard result differs between two identical executions")
	}
}

func TestShardPreservesGlobalIndices(t *testing.T) {
	grid := &Grid{CCs: []string{"cubic", "olia", "lia"}, DurationMs: 100}
	sr := streamShard(t, &Sweep{Workers: 2}, grid, Shard{K: 1, N: 2})
	if sr.Total != 3 || len(sr.Runs) != 1 {
		t.Fatalf("shard 1/2 of 3 runs holds %d of %d", len(sr.Runs), sr.Total)
	}
	if sr.Runs[0].Index != 1 {
		t.Fatalf("shard run carries index %d, want the global expansion index 1", sr.Runs[0].Index)
	}
}

func TestParseShard(t *testing.T) {
	for spec, want := range map[string]Shard{
		"0/4": {K: 0, N: 4},
		"3/4": {K: 3, N: 4},
		"0/1": {K: 0, N: 1},
	} {
		got, err := ParseShard(spec)
		if err != nil {
			t.Errorf("ParseShard(%q): %v", spec, err)
		} else if got != want {
			t.Errorf("ParseShard(%q) = %+v, want %+v", spec, got, want)
		}
	}
	for _, spec := range []string{"", "3", "1/2/3", "a/4", "1/b", "4/4", "-1/4", "0/0", "0/-2"} {
		if _, err := ParseShard(spec); err == nil {
			t.Errorf("ParseShard(%q) accepted", spec)
		}
	}
}

func TestRunShardRejectsInvalidShard(t *testing.T) {
	grid := &Grid{DurationMs: 100}
	for _, shard := range []Shard{{K: 0, N: -1}, {K: 2, N: 2}, {K: -1, N: 2}} {
		if err := (&Sweep{}).Stream(grid, StreamSpec{Shard: shard}, &MemorySink{}); err == nil {
			t.Errorf("Stream accepted shard %+v", shard)
		}
	}
}

// perSpecDigest is specsDigest as it was before it encoded each cell's
// topology once: the resolved scenario encoded in every record.
func perSpecDigest(specs []RunSpec) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, sp := range specs {
		rec := struct {
			Index        int           `json:"index"`
			Scenario     string        `json:"scenario"`
			Perturbation string        `json:"perturbation"`
			Events       string        `json:"events"`
			Options      Options       `json:"options"`
			Topology     *ScenarioFile `json:"topology"`
		}{sp.Index, sp.Scenario, sp.Perturbation, sp.Events, sp.Options, sp.cell.scenario}
		if err := enc.Encode(rec); err != nil {
			panic(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSpecsDigestEncodesTopologyOnce holds the digest to the per-spec
// encoding it replaced, byte for byte, so run-logs written before still
// resume: on the default grid, and on one with two scenarios (one of them
// dynamic, its node names in need of HTML escaping), perturbations and an
// event axis.
func TestSpecsDigestEncodesTopologyOnce(t *testing.T) {
	odd := PaperScenario()
	for i := range odd.Links {
		odd.Links[i].A = strings.ReplaceAll(odd.Links[i].A, "v", "<v&>")
		odd.Links[i].B = strings.ReplaceAll(odd.Links[i].B, "v", "<v&>")
	}
	for i := range odd.Paths {
		for j, n := range odd.Paths[i].Nodes {
			odd.Paths[i].Nodes[j] = strings.ReplaceAll(n, "v", "<v&>")
		}
	}
	odd.Events = []ScenarioEvent{{AtMs: 50, Type: EventSetRate, A: "<v&>3", B: "<v&>4", Mbps: 20}}
	for name, g := range map[string]*Grid{
		"default": {},
		"cells": {
			Scenarios: []GridScenario{{Name: "paper", Paper: true}, {Name: "odd", Scenario: odd}},
			CCs:       []string{"cubic", "olia"},
			Seeds:     []int64{1, 2},
			Perturbations: []Perturbation{
				{Name: "base"},
				{Name: "lossy", Loss: 0.005},
			},
			Events: []EventSet{
				{Name: "static"},
				{Name: "outage", Scenarios: []string{"paper"}, Events: []ScenarioEvent{
					{AtMs: 100, Type: EventLinkDown, A: "s", B: "v1"},
					{AtMs: 200, Type: EventLinkUp, A: "s", B: "v1"},
				}},
			},
		},
	} {
		specs, err := (&Sweep{}).expandFolded(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := specsDigest(specs), perSpecDigest(specs); got != want {
			t.Errorf("%s: digest %s, per-spec encoding %s", name, got, want)
		}
	}
}

func TestGridDigestIdentifiesGrid(t *testing.T) {
	a := &Grid{CCs: []string{"cubic"}, Seeds: []int64{1, 2}, DurationMs: 100}
	d1, _, err := (&Sweep{}).Describe(a)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := (&Sweep{}).Describe(a)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest not stable: %s vs %s", d1, d2)
	}
	b := &Grid{CCs: []string{"cubic"}, Seeds: []int64{1, 3}, DurationMs: 100}
	d3, _, err := (&Sweep{}).Describe(b)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("different grids share a digest")
	}
}

// fabShard builds a hand-made shard for the merge error-path tests —
// MergeShards validates structure, so no runs need executing.
func fabShard(digest string, k, n, total int, indices ...int) *ShardResult {
	sr := &ShardResult{GridDigest: digest, K: k, N: n, Total: total}
	for _, i := range indices {
		sr.Runs = append(sr.Runs, RunSummary{Index: i})
	}
	return sr
}

func TestMergeShardsDiagnostics(t *testing.T) {
	cases := map[string]struct {
		shards []*ShardResult
		want   string
	}{
		"no shards": {nil, "no shards"},
		"digest mismatch": {
			[]*ShardResult{fabShard("aaa", 0, 2, 4, 0, 2), fabShard("bbb", 1, 2, 4, 1, 3)},
			"grid digest mismatch",
		},
		"shard count mismatch": {
			[]*ShardResult{fabShard("aaa", 0, 2, 4, 0, 2), fabShard("aaa", 1, 3, 4, 1)},
			"shape mismatch",
		},
		"total mismatch": {
			[]*ShardResult{fabShard("aaa", 0, 2, 4, 0, 2), fabShard("aaa", 1, 2, 6, 1, 3, 5)},
			"shape mismatch",
		},
		"invalid shard coordinates": {
			[]*ShardResult{fabShard("aaa", 2, 2, 4, 0)},
			"out of range",
		},
		"missing shard": {
			[]*ShardResult{fabShard("aaa", 0, 2, 4, 0, 2)},
			"shard(s) 1 of 2",
		},
		"incomplete shard": {
			[]*ShardResult{fabShard("aaa", 0, 2, 4, 0, 2), fabShard("aaa", 1, 2, 4, 1)},
			"missing",
		},
		"duplicate shard": {
			[]*ShardResult{fabShard("aaa", 0, 2, 4, 0, 2), fabShard("aaa", 0, 2, 4, 0, 2), fabShard("aaa", 1, 2, 4, 1, 3)},
			"duplicate run index 0",
		},
		"foreign index": {
			[]*ShardResult{fabShard("aaa", 0, 2, 4, 0, 1), fabShard("aaa", 1, 2, 4, 1, 3)},
			"does not belong to shard 0/2",
		},
		"index out of range": {
			[]*ShardResult{fabShard("aaa", 0, 2, 4, 0, 99), fabShard("aaa", 1, 2, 4, 1, 3)},
			"outside 0..3",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := MergeShards(tc.shards...)
			if err == nil {
				t.Fatal("merge accepted a broken shard set")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestMergeRejectsMixedValidateInvariants: the sweep-level oracle flag
// changes what a run can report (violations become Errs), so shards
// swept with and without it carry different digests and must not merge.
func TestMergeRejectsMixedValidateInvariants(t *testing.T) {
	grid := &Grid{CCs: []string{"cubic", "olia"}, DurationMs: 100}
	plainDigest, _, err := (&Sweep{}).Describe(grid)
	if err != nil {
		t.Fatal(err)
	}
	checkedDigest, _, err := (&Sweep{ValidateInvariants: true}).Describe(grid)
	if err != nil {
		t.Fatal(err)
	}
	if plainDigest == checkedDigest {
		t.Fatal("validated and unvalidated sweeps share a grid digest")
	}
	plain := streamShard(t, &Sweep{Workers: 1}, grid, Shard{K: 0, N: 2})
	checked := streamShard(t, &Sweep{Workers: 1, ValidateInvariants: true}, grid, Shard{K: 1, N: 2})
	if plain.GridDigest != plainDigest || checked.GridDigest != checkedDigest {
		t.Fatal("shards do not carry their sweep's Describe digest")
	}
	if _, err := MergeShards(plain, checked); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("mixed-provenance merge not rejected: %v", err)
	}
	// Two validated shards still merge.
	other := streamShard(t, &Sweep{Workers: 2, ValidateInvariants: true}, grid, Shard{K: 0, N: 2})
	if _, err := MergeShards(checked, other); err != nil {
		t.Fatal(err)
	}
}

// TestMergeShardsHugeClaimedTotal: N and Total arrive in a file's header,
// and a hundred bytes can claim anything. The merge sizes its tables by the
// records it was handed, so an absurd claim is an incomplete merge — first
// missing index and short shards named, the list capped — not a makeslice
// panic or an out-of-memory kill.
func TestMergeShardsHugeClaimedTotal(t *testing.T) {
	const huge = 1_000_000_000_000_000
	cases := map[string]struct {
		shards []*ShardResult
		want   []string
	}{
		"two shards, four records": {
			[]*ShardResult{fabShard("aaa", 0, 2, huge, 0, 2), fabShard("aaa", 1, 2, huge, 1, 3)},
			[]string{"999999999999996 of 1000000000000000 run indices missing (first: 4)", "shard(s) 0,1 of 2"},
		},
		"a gap before the end": {
			[]*ShardResult{fabShard("aaa", 0, 2, huge, 0, 4), fabShard("aaa", 1, 2, huge, 1, 3)},
			[]string{"(first: 2)", "shard(s) 0,1 of 2"},
		},
		"no records at all": {
			[]*ShardResult{fabShard("aaa", 0, 1, huge)},
			[]string{"(first: 0)", "shard(s) 0 of 1"},
		},
		"as many shards as runs": {
			[]*ShardResult{fabShard("aaa", 1, huge, huge, 1)},
			[]string{"(first: 0)", "shard(s) 0,2,3,", ",32,… of 1000000000000000"},
		},
		"a complete shard is not named": {
			[]*ShardResult{fabShard("aaa", 1, 3, 5, 1, 4)},
			[]string{"3 of 5 run indices missing (first: 0)", "shard(s) 0,2 of 3"},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := MergeShards(tc.shards...)
			if err == nil {
				t.Fatal("merge accepted an incomplete shard set")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}
