package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mptcpsim"
	"mptcpsim/internal/telemetry"
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
// all four output formats — with every heartbeat line valid JSON.
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

	var progress, notices bytes.Buffer
	meter := telemetry.NewMeter(&progress, 12, shards, 0)
	coord := &Coordinator{
		Sweep:       &mptcpsim.Sweep{Workers: 2},
		Grid:        fleetGrid(),
		Shards:      shards,
		Workers:     2,
		Spool:       spool,
		Runner:      runner,
		TTL:         time.Minute,
		MaxAttempts: 5,
		Poll:        5 * time.Millisecond,
		Meter:       meter,
		Log:         &notices,
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatalf("fleet: %v\nnotices:\n%s", err, notices.String())
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

	// Live progress: the folded aggregate covers every run exactly once,
	// despite re-deliveries across resumes.
	agg := coord.Progress()
	if agg.Runs+agg.Errors != 12 {
		t.Fatalf("fleet aggregate folded %d runs + %d errors, want 12 exactly-once", agg.Runs, agg.Errors)
	}

	// Heartbeats: every line independently valid JSON, final line accounts
	// for the whole grid.
	if err := meter.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(progress.String(), "\n"), "\n")
	var hb telemetry.Heartbeat
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("heartbeat %d is not valid JSON: %s", i, line)
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Done != 12 || hb.Total != 12 {
		t.Fatalf("final heartbeat done/total = %d/%d, want 12/12", hb.Done, hb.Total)
	}
}

// TestFleetCoordinatorRestart is crash-safety one level up: the
// coordinator itself aborts (a shard out of attempts), a fresh coordinator
// is pointed at the same spool, and the fleet finishes from the committed
// prefix — byte-identical output, heartbeats crediting the resumed runs.
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
			worker:   worker,
			plan:     func(k, attempt int) int { return 1 + rng.Intn(2) }, // every attempt dies
			rng:      rng,
			attempts: make(map[int]int),
		},
		TTL:         time.Minute,
		MaxAttempts: 2,
		Poll:        5 * time.Millisecond,
	}
	if _, err := first.Run(context.Background()); !errors.Is(err, ErrAttemptsExhausted) {
		t.Fatalf("doomed fleet: err = %v, want ErrAttemptsExhausted", err)
	}

	var progress bytes.Buffer
	meter := telemetry.NewMeter(&progress, 12, 3, 0)
	second := &Coordinator{
		Sweep:   &mptcpsim.Sweep{Workers: 2},
		Grid:    fleetGrid(),
		Shards:  3,
		Workers: 2,
		Spool:   spool,
		Runner:  worker,
		TTL:     time.Minute,
		Poll:    5 * time.Millisecond,
		Meter:   meter,
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
	if err := meter.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(progress.String(), "\n"), "\n")
	var hb telemetry.Heartbeat
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Done != 12 {
		t.Fatalf("final heartbeat credits %d runs, want all 12 (resumed + executed)", hb.Done)
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
	var notices bytes.Buffer
	coord := &Coordinator{
		Sweep:   &mptcpsim.Sweep{Workers: 2},
		Grid:    fleetGrid(),
		Shards:  1,
		Workers: 2,
		Spool:   spool,
		Runner:  runner,
		// Long enough for the real second attempt to finish inside its
		// lease even under -race; the hung first attempt pays it in full.
		TTL:         2 * time.Second,
		MaxAttempts: 3,
		Poll:        10 * time.Millisecond,
		Log:         &notices,
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatalf("fleet: %v\nnotices:\n%s", err, notices.String())
	}
	if len(res.Runs) != 12 {
		t.Fatalf("merged %d runs, want 12", len(res.Runs))
	}
	if runner.calls < 2 {
		t.Fatalf("shard completed in %d calls; the hung lease was never re-granted", runner.calls)
	}
	if !strings.Contains(notices.String(), "incomplete") {
		t.Fatalf("coordinator never logged the failed lease:\n%s", notices.String())
	}
}
