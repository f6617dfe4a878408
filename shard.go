package mptcpsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Shard selects a deterministic 1/N slice of an expanded grid: the runs
// whose expansion index i satisfies i % N == K. Because expansion order is
// deterministic and documented (see Grid), the same grid spec sharded on
// different machines partitions into the same N disjoint run sets, and
// MergeShards can reassemble them into the exact unsharded SweepResult.
type Shard struct {
	// K is the shard coordinate, 0 <= K < N.
	K int
	// N is the shard count; 1 means the whole grid.
	N int
}

// Validate reports whether the shard coordinates are usable.
func (s Shard) Validate() error {
	if s.N < 1 {
		return fmt.Errorf("mptcpsim: shard count %d (want >= 1)", s.N)
	}
	if s.K < 0 || s.K >= s.N {
		return fmt.Errorf("mptcpsim: shard index %d out of range 0..%d", s.K, s.N-1)
	}
	return nil
}

// Size is how many of a grid's total expansion indices fall in the shard.
func (s Shard) Size(total int) int {
	if s.N <= 0 || s.K >= total {
		return 0
	}
	return (total + s.N - 1 - s.K) / s.N
}

// String renders the shard in the CLI's k/n form.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.K, s.N) }

// ParseShard parses the CLI form "k/n" (e.g. "0/4") into a Shard.
func ParseShard(spec string) (Shard, error) {
	k, n, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("mptcpsim: shard %q is not of the form k/n", spec)
	}
	ki, err := strconv.Atoi(k)
	if err != nil {
		return Shard{}, fmt.Errorf("mptcpsim: shard %q: bad index: %v", spec, err)
	}
	ni, err := strconv.Atoi(n)
	if err != nil {
		return Shard{}, fmt.Errorf("mptcpsim: shard %q: bad count: %v", spec, err)
	}
	s := Shard{K: ki, N: ni}
	if err := s.Validate(); err != nil {
		return Shard{}, err
	}
	return s, nil
}

// ShardResult is the in-memory merge input for one shard of a sweep: the
// grid's digest and total size, the shard coordinates, and the shard's run
// summaries labelled with their global expansion indices. It has no disk
// format of its own — the shard artifact is the run-log, and
// RunLog.ShardResult produces this value from one. N of them (one per K)
// are reassembled by MergeShards into a SweepResult identical to the
// unsharded Sweep.Run output.
type ShardResult struct {
	// GridDigest is the canonical SHA-256 over the expanded grid (every
	// run's index, labels, options as they run — a sweep's
	// ValidateInvariants and EventLimit fold in here — and topology).
	// Shards merge only when their digests agree: the guard against mixing
	// run-logs from different grids, different run settings, or library
	// versions that expand differently.
	GridDigest string
	// K and N are the shard coordinates (runs with Index % N == K).
	K, N int
	// Total is the run count of the whole grid, not just this shard.
	Total int
	// Runs are the shard's summaries, in expansion order, with global
	// indices.
	Runs []RunSummary
}

// expandFolded expands the grid with the sweep's settings folded into
// every spec — the specs Stream executes and Describe digests. A run whose
// invariant violation or event limit becomes its Err is not the same run
// as one swept without it, so shards swept with different settings refuse
// to merge rather than mix provenance under one digest (Telemetry, which
// only observes, is not digested).
func (s *Sweep) expandFolded(g *Grid) ([]RunSpec, error) {
	specs, err := g.Expand()
	if err != nil {
		return nil, err
	}
	for i := range specs {
		o := &specs[i].Options
		o.ValidateInvariants, o.EventLimit, o.Telemetry = s.ValidateInvariants, s.EventLimit, s.Telemetry
	}
	return specs, nil
}

// MergeShards reassembles the shards of a sweep into the SweepResult of
// the unsharded sweep. It accepts the shards in any order but insists on a
// complete, consistent set: one grid digest, one (N, Total) shape, and
// every run index 0..Total-1 present exactly once, each inside the shard
// that owns it. Groups and the overall Gap are recomputed from the full
// run list (medians and standard deviations do not compose from per-shard
// aggregates), so the merged value — and every serialisation of it — is
// byte-identical to Sweep.Run on the same grid.
//
// N and Total are a header's word, and headers are untrusted bytes: every
// table here is sized by the records actually supplied, so a small file
// claiming 1e15 runs is diagnosed as incomplete, not allocated for.
func MergeShards(shards ...*ShardResult) (*SweepResult, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("mptcpsim: merge: no shards")
	}
	ref := shards[0]
	if ref.N < 1 {
		return nil, fmt.Errorf("mptcpsim: merge: shard %d/%d has invalid shard count", ref.K, ref.N)
	}
	if ref.Total < 0 {
		return nil, fmt.Errorf("mptcpsim: merge: shard %d/%d reports negative total %d", ref.K, ref.N, ref.Total)
	}
	var indices []int     // every supplied index, each inside 0..Total-1 and its own shard
	have := map[int]int{} // shard coordinate → records supplied
	for i, sr := range shards {
		if sr.GridDigest != ref.GridDigest {
			return nil, fmt.Errorf("mptcpsim: merge: grid digest mismatch: shard %d/%d has %s, shard %d/%d has %s (artifacts from different grids?)",
				sr.K, sr.N, sr.GridDigest, ref.K, ref.N, ref.GridDigest)
		}
		if sr.N != ref.N || sr.Total != ref.Total {
			return nil, fmt.Errorf("mptcpsim: merge: shard shape mismatch: artifact %d is shard %d/%d of %d runs, artifact 0 is shard %d/%d of %d",
				i, sr.K, sr.N, sr.Total, ref.K, ref.N, ref.Total)
		}
		if err := (Shard{K: sr.K, N: sr.N}).Validate(); err != nil {
			return nil, fmt.Errorf("mptcpsim: merge: %w", err)
		}
		for _, run := range sr.Runs {
			if run.Index < 0 || run.Index >= ref.Total {
				return nil, fmt.Errorf("mptcpsim: merge: shard %d/%d contains run index %d outside 0..%d",
					sr.K, sr.N, run.Index, ref.Total-1)
			}
			if run.Index%sr.N != sr.K {
				return nil, fmt.Errorf("mptcpsim: merge: run index %d does not belong to shard %d/%d (index %% %d = %d)",
					run.Index, sr.K, sr.N, sr.N, run.Index%sr.N)
			}
			indices = append(indices, run.Index)
		}
		have[sr.K] += len(sr.Runs)
	}
	// Sorted and free of repeats, the supplied indices are 0..Total-1 exactly
	// when there are Total of them; otherwise the first one out of place
	// sits just past the first missing index.
	sort.Ints(indices)
	for i := 1; i < len(indices); i++ {
		if idx := indices[i]; idx == indices[i-1] {
			return nil, fmt.Errorf("mptcpsim: merge: duplicate run index %d (shard %d/%d supplied twice?)",
				idx, idx%ref.N, ref.N)
		}
	}
	if len(indices) < ref.Total {
		first := sort.Search(len(indices), func(i int) bool { return indices[i] != i })
		return nil, fmt.Errorf("mptcpsim: merge: %d of %d run indices missing (first: %d); incomplete or absent shard(s) %s of %d",
			ref.Total-len(indices), ref.Total, first, shortShards(have, ref.N, ref.Total), ref.N)
	}
	runs := make([]RunSummary, len(indices))
	for _, sr := range shards {
		for _, run := range sr.Runs {
			runs[run.Index] = run
		}
	}
	res := &SweepResult{Runs: runs}
	res.aggregate(false)
	return res, nil
}

// maxNamedShards caps the list in an incomplete-merge diagnostic: a header
// may claim any shard count.
const maxNamedShards = 32

// shortShards names the shard coordinates that were supplied fewer records
// than they own, e.g. "1,3" — the actionable half of an incomplete-merge
// diagnostic. The walk ends after maxNamedShards names; before that, every
// coordinate it passes without naming is a shard with records in have.
func shortShards(have map[int]int, n, total int) string {
	var parts []string
	for k := 0; k < n && k < total; k++ {
		if have[k] < (Shard{K: k, N: n}).Size(total) {
			if len(parts) == maxNamedShards {
				return strings.Join(parts, ",") + ",…"
			}
			parts = append(parts, strconv.Itoa(k))
		}
	}
	return strings.Join(parts, ",")
}

// specsDigest computes a canonical SHA-256 over an expanded run list:
// every run's index, cell labels, options as they run and resolved
// topology (events included). Two grid specs digest equally exactly when
// they expand to the same runs in the same order — the identity
// MergeShards checks before trusting that shard index sets partition one
// grid.
func specsDigest(specs []RunSpec) string {
	h := sha256.New()
	// A record is the JSON object {"index",…,"options","topology"} and a
	// newline. A cell's runs share its topology and are consecutive in the
	// list, so its `,"topology":…}` tail is encoded once per cell and each
	// record encodes only its head: the hashed bytes are those of encoding
	// the whole record every time, at a third of the cost.
	var head, tail bytes.Buffer
	headEnc, tailEnc := json.NewEncoder(&head), json.NewEncoder(&tail)
	var last *cell
	var rec struct {
		Index        int     `json:"index"`
		Scenario     string  `json:"scenario"`
		Perturbation string  `json:"perturbation"`
		Events       string  `json:"events"`
		Options      Options `json:"options"`
	}
	for _, sp := range specs {
		// Encoding plain option/topology data cannot fail.
		if sp.cell != last {
			last = sp.cell
			tail.Reset()
			tail.WriteString(`,"topology":`)
			if err := tailEnc.Encode(sp.cell.scenario); err != nil {
				panic(fmt.Sprintf("mptcpsim: spec digest: %v", err))
			}
			tail.Truncate(tail.Len() - 1) // the encoder's newline
			tail.WriteString("}\n")
		}
		rec.Index, rec.Scenario, rec.Perturbation, rec.Events = sp.Index, sp.Scenario, sp.Perturbation, sp.Events
		rec.Options = sp.Options
		head.Reset()
		if err := headEnc.Encode(&rec); err != nil {
			panic(fmt.Sprintf("mptcpsim: spec digest: %v", err))
		}
		h.Write(head.Bytes()[:head.Len()-2]) // all but the closing "}\n"
		h.Write(tail.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}
