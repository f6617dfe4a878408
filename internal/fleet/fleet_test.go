package fleet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mptcpsim"
)

// fleetGrid is the shared test grid: 12 runs over 4 shard-friendly axes,
// short enough to sweep several times per test.
func fleetGrid() *mptcpsim.Grid {
	return &mptcpsim.Grid{
		CCs:        []string{"cubic", "olia"},
		Orders:     [][]int{{2, 1, 3}, {1, 2, 3}},
		Seeds:      []int64{1, 2, 3},
		DurationMs: 150,
	}
}

// renderAll renders the four output formats of a result.
func renderAll(t *testing.T, res *mptcpsim.SweepResult) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for name, fn := range map[string]func(io.Writer) error{
		"report":     res.Report,
		"runs.csv":   res.WriteCSV,
		"groups.csv": res.WriteGroupsCSV,
		"sweep.json": res.WriteJSON,
	} {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatalf("render %s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

var errInjectedCrash = errors.New("injected worker crash")

// crashSink kills the worker from inside its sink chain: after the
// configured number of accepted records it poisons the stream and —
// like a real SIGKILL — suppresses the final Close flush, so buffered
// uncommitted records are lost.
type crashSink struct {
	next    mptcpsim.RunSink
	after   int
	accepts int
	crashed bool
}

func (s *crashSink) Accept(done, total int, r mptcpsim.RunSummary, full *mptcpsim.Result) error {
	if s.accepts >= s.after {
		s.crashed = true
		return errInjectedCrash
	}
	s.accepts++
	return s.next.Accept(done, total, r, full)
}

func (s *crashSink) Flush() error {
	if s.crashed {
		return errInjectedCrash
	}
	return s.next.Flush()
}

func (s *crashSink) Close() error {
	if s.crashed {
		return errInjectedCrash
	}
	return s.next.Close()
}

// crashyRunner wraps the in-process Worker with a crash plan: chosen
// attempts die after a random number of committed records, and the dead
// worker's log is additionally mangled at a uniformly random byte — every
// torn-tail byte class, including cuts inside the header line.
type crashyRunner struct {
	worker *Worker
	// plan returns how many records attempt n on shard k may commit
	// before crashing, or -1 to run clean.
	plan func(k, attempt int) int

	mu       sync.Mutex
	rng      *rand.Rand
	attempts map[int]int
	crashes  int
}

func (r *crashyRunner) Run(ctx context.Context, lease Lease) error {
	r.mu.Lock()
	r.attempts[lease.K]++
	after := r.plan(lease.K, r.attempts[lease.K])
	r.mu.Unlock()

	w := Worker{Sweep: r.worker.Sweep, Grid: r.worker.Grid, Spool: r.worker.Spool, SyncEvery: r.worker.SyncEvery}
	var sink *crashSink
	if after >= 0 {
		w.WrapSink = func(_ Lease, next mptcpsim.RunSink) mptcpsim.RunSink {
			sink = &crashSink{next: next, after: after}
			return sink
		}
	}
	err := w.Run(ctx, lease)
	if sink != nil && sink.crashed {
		r.mangle(lease)
	}
	return err
}

// mangle simulates the arbitrary on-disk state a kill leaves behind:
// half the time the log is cut at a uniformly random byte (which can land
// inside the header, inside a record, or exactly on a commit mark), the
// other half a torn partial record is appended.
func (r *crashyRunner) mangle(lease Lease) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.crashes++
	path := ShardLogPath(r.worker.Spool, lease.K, lease.N)
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) == 0 {
		return
	}
	if r.rng.Intn(2) == 0 {
		cut := r.rng.Intn(len(raw) + 1)
		os.WriteFile(path, raw[:cut], 0o644)
		return
	}
	torn := []byte(`{"run":{"index`)[:1+r.rng.Intn(13)]
	os.WriteFile(path, append(raw, torn...), 0o644)
}

// TestFleetKillWorkersByteIdentity is the tentpole property: every shard's
// first attempt is killed mid-shard at a random point (plus one double
// kill), the logs are mangled at random bytes, and the fleet's merged
// result must still be byte-identical to the unsharded in-memory sweep in
// all four output formats.
func TestFleetKillWorkersByteIdentity(t *testing.T) {
	want := func() map[string][]byte {
		res, err := (&mptcpsim.Sweep{Workers: 2}).Run(fleetGrid())
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(t, res)
	}()

	const shards = 4
	spool := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	runner := &crashyRunner{
		worker: &Worker{
			Sweep:     &mptcpsim.Sweep{Workers: 2},
			Grid:      fleetGrid(),
			Spool:     spool,
			SyncEvery: 1,
		},
		// Shard size is 3 here, so every first attempt (committing 1, 2, 0
		// or 1 records — always short of 3) dies mid-shard, and shard 0
		// dies again immediately on its second attempt. The plan is a pure
		// function of (shard, attempt) so the kill count is deterministic
		// under any goroutine interleaving; only the mangling stays random.
		plan: func(k, attempt int) int {
			switch {
			case attempt == 1:
				return (k*7 + 1) % 3
			case k == 0 && attempt == 2:
				return 0
			}
			return -1
		},
		rng:      rng,
		attempts: make(map[int]int),
	}

	coord := &Coordinator{
		Sweep:   &mptcpsim.Sweep{Workers: 2},
		Grid:    fleetGrid(),
		Shards:  shards,
		Workers: 2,
		Spool:   spool,
		Runner:  runner,
		TTL:     time.Minute,
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if runner.crashes != 5 {
		t.Fatalf("crash plan executed %d kills, want 5", runner.crashes)
	}

	got := renderAll(t, res)
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("fleet output %s differs from the unsharded sweep", name)
		}
	}
}

// TestFleetCoordinatorRestart is crash-safety one level up: the
// coordinator itself aborts (a shard out of attempts), a fresh coordinator
// is pointed at the same spool, and the fleet finishes from the committed
// prefix with byte-identical output.
func TestFleetCoordinatorRestart(t *testing.T) {
	spool := t.TempDir()
	worker := &Worker{
		Sweep:     &mptcpsim.Sweep{Workers: 2},
		Grid:      fleetGrid(),
		Spool:     spool,
		SyncEvery: 1,
	}
	rng := rand.New(rand.NewSource(11))
	first := &Coordinator{
		Sweep:   &mptcpsim.Sweep{Workers: 2},
		Grid:    fleetGrid(),
		Shards:  3,
		Workers: 2,
		Spool:   spool,
		Runner: &crashyRunner{
			worker: worker,
			// Every attempt dies: the first after committing 1 or 2 of the
			// shard's 4 records, every later one before its first.
			plan: func(k, attempt int) int {
				if attempt == 1 {
					return 1 + rng.Intn(2)
				}
				return 0
			},
			rng:      rng,
			attempts: make(map[int]int),
		},
		TTL: time.Minute,
	}
	if _, err := first.Run(context.Background()); !errors.Is(err, ErrAttemptsExhausted) {
		t.Fatalf("doomed fleet: err = %v, want ErrAttemptsExhausted", err)
	}

	second := &Coordinator{
		Sweep:   &mptcpsim.Sweep{Workers: 2},
		Grid:    fleetGrid(),
		Shards:  3,
		Workers: 2,
		Spool:   spool,
		Runner:  worker,
		TTL:     time.Minute,
	}
	res, err := second.Run(context.Background())
	if err != nil {
		t.Fatalf("restarted fleet: %v", err)
	}
	want, err := (&mptcpsim.Sweep{Workers: 2}).Run(fleetGrid())
	if err != nil {
		t.Fatal(err)
	}
	wantAll, gotAll := renderAll(t, want), renderAll(t, res)
	for name, w := range wantAll {
		if !bytes.Equal(gotAll[name], w) {
			t.Errorf("restarted fleet output %s differs from the unsharded sweep", name)
		}
	}
}

// hangRunner blocks its first call until the lease deadline kills it,
// writing nothing, then delegates to the real worker — the silent-worker
// expiry path.
type hangRunner struct {
	worker *Worker
	mu     sync.Mutex
	calls  int
}

func (r *hangRunner) Run(ctx context.Context, lease Lease) error {
	r.mu.Lock()
	r.calls++
	first := r.calls == 1
	r.mu.Unlock()
	if first {
		<-ctx.Done()
		return ctx.Err()
	}
	return r.worker.Run(ctx, lease)
}

// TestFleetLeaseExpiryRevivesShard covers the hung worker: the first lease
// holder never writes a byte, the lease expires, and a re-grant finishes
// the shard.
func TestFleetLeaseExpiryRevivesShard(t *testing.T) {
	spool := t.TempDir()
	worker := &Worker{
		Sweep: &mptcpsim.Sweep{Workers: 2},
		Grid:  fleetGrid(),
		Spool: spool,
	}
	runner := &hangRunner{worker: worker}
	coord := &Coordinator{
		Sweep:   &mptcpsim.Sweep{Workers: 2},
		Grid:    fleetGrid(),
		Shards:  1,
		Workers: 2,
		Spool:   spool,
		Runner:  runner,
		// Long enough for the real second attempt to finish inside its
		// lease even under -race; the hung first attempt pays it in full.
		TTL: 2 * time.Second,
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if len(res.Runs) != 12 {
		t.Fatalf("merged %d runs, want 12", len(res.Runs))
	}
	if runner.calls < 2 {
		t.Fatalf("shard completed in %d calls; the hung lease was never re-granted", runner.calls)
	}
}

// refusingRunner counts the leases it is handed and fails every one.
type refusingRunner struct {
	mu    sync.Mutex
	calls int
}

func (r *refusingRunner) Run(ctx context.Context, lease Lease) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	return errors.New("no lease should have been granted")
}

// TestFleetRefusesStaleSpoolLog: a shard log another grid, or another cut
// of this grid, left in the spool is neither progress nor a resume
// baseline. Run fails at its startup poll, naming the file, before it
// grants a single lease.
func TestFleetRefusesStaleSpoolLog(t *testing.T) {
	sweep := &mptcpsim.Sweep{Workers: 2}
	digest, total, err := sweep.Describe(fleetGrid())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		header mptcpsim.RunLogHeader
	}{
		{"other grid", mptcpsim.RunLogHeader{GridDigest: "0123456789abcdef", K: 0, N: 2, Total: total}},
		{"other shard count", mptcpsim.RunLogHeader{GridDigest: digest, K: 0, N: 3, Total: total}},
		{"other total", mptcpsim.RunLogHeader{GridDigest: digest, K: 0, N: 2, Total: total + 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spool := t.TempDir()
			path := ShardLogPath(spool, 0, 2)
			var log bytes.Buffer
			sink, err := mptcpsim.NewLogSink(&log, tc.header, mptcpsim.LogOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i, index := range []int{0, tc.header.N} {
				if err := sink.Accept(i+1, 2, mptcpsim.RunSummary{Index: index, Scenario: "elsewhere", CC: "reno"}, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, log.Bytes(), 0o666); err != nil {
				t.Fatal(err)
			}

			runner := &refusingRunner{}
			coord := &Coordinator{
				Sweep:   sweep,
				Grid:    fleetGrid(),
				Shards:  2,
				Workers: 2,
				Spool:   spool,
				Runner:  runner,
				TTL:     time.Minute,
			}
			_, err = coord.Run(context.Background())
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("Run: err = %v, want the stale log %s named", err, path)
			}
			if runner.calls != 0 {
				t.Fatalf("the fleet acted on a stale log: %d leases run", runner.calls)
			}
		})
	}
}

// TestRunRefusesZeroTTL: a lease with no lifetime expires as it is
// granted, so the table would hand a running shard to a second writer of
// the same log. Run refuses it before it grants a single lease.
func TestRunRefusesZeroTTL(t *testing.T) {
	for _, ttl := range []time.Duration{0, -time.Second} {
		runner := &refusingRunner{}
		coord := &Coordinator{
			Sweep:   &mptcpsim.Sweep{Workers: 1},
			Grid:    fleetGrid(),
			Shards:  1,
			Workers: 2,
			Spool:   t.TempDir(),
			Runner:  runner,
			TTL:     ttl,
		}
		if _, err := coord.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "TTL") {
			t.Errorf("TTL %v: err = %v, want the TTL refused", ttl, err)
		}
		if runner.calls != 0 {
			t.Errorf("TTL %v: %d leases run, want none", ttl, runner.calls)
		}
	}
}
