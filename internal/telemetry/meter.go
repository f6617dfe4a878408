package telemetry

import (
	"encoding/json"
	"expvar"
	"io"
	"math"
	"sync"
	"time"
)

// Heartbeat is one NDJSON progress line. Heartbeats carry wall-clock data
// and are therefore written to a side channel (-progress), never into
// sweep artifacts, which must stay byte-identical across machines.
type Heartbeat struct {
	// T is the wall-clock emission time (RFC 3339, with sub-second
	// precision); ElapsedS the seconds since the meter started.
	T        string  `json:"t"`
	ElapsedS float64 `json:"elapsed_s"`
	// Done / Total / Failed count runs; Done is monotone because Advance
	// updates it under the meter's lock.
	Done   int `json:"done"`
	Total  int `json:"total"`
	Failed int `json:"failed"`
	// RunsPerS is the EWMA completion rate, EtaS the projected seconds to
	// completion at that rate. Both are omitted (JSON null semantics)
	// while unknown: at the first tick the EWMA can still be zero, and a
	// coarse clock can measure a zero inter-completion gap, so computing
	// them regardless would put +Inf/NaN on the wire — which is not JSON
	// and breaks every NDJSON consumer downstream. Pointers, not zeroes:
	// a rate of 0 runs/s is a meaningful (stuck) value, absence is not.
	RunsPerS *float64 `json:"runs_per_s,omitempty"`
	EtaS     *float64 `json:"eta_s,omitempty"`
	// Workers is the pool size the sweep runs (a command resolves
	// -workers 0 or below to GOMAXPROCS before it gets here); IdleMs the wall milliseconds
	// since the previous completion — a liveness signal (a large value
	// with Done < Total means the pool is stuck or on a long run).
	Workers int   `json:"workers"`
	IdleMs  int64 `json:"idle_ms"`
}

// Meter turns a stream of run completions into periodic NDJSON heartbeats.
// Feed it from wherever completions surface (cli.MeterSink in the chain
// of a sweep's or simcheck's Sweep.Execute, a fleet coordinator scanning
// run-logs); it rate-limits emission to the configured
// interval and always emits the final heartbeat on Close. A Meter is safe
// for concurrent Advance calls: it carries its own mutex.
type Meter struct {
	mu       sync.Mutex
	w        io.Writer
	total    int
	workers  int
	interval time.Duration

	start    time.Time
	last     time.Time // previous completion
	lastEmit time.Time
	done     int
	failed   int
	// records counts completions this execution — done minus any Resume
	// baseline — so the EWMA seeds from the first run actually measured.
	records int
	// ewmaDt is the smoothed seconds-per-completion (aggregate over the
	// pool, so ETA needs no worker-count correction).
	ewmaDt float64

	// now is the clock, swappable in tests.
	now func() time.Time
}

// ewmaAlpha weights the newest inter-completion gap at 20%.
const ewmaAlpha = 0.2

// NewMeter returns a meter for total runs on a pool of workers, writing
// heartbeats to w at most once per interval (plus a final one on Close).
// An interval <= 0 emits on every completion.
func NewMeter(w io.Writer, total, workers int, interval time.Duration) *Meter {
	m := &Meter{w: w, total: total, workers: workers, interval: interval,
		now: time.Now}
	m.start = m.now()
	m.last = m.start
	return m
}

// Resume seeds the meter with runs completed by an earlier, interrupted
// execution (a resumed run-log): heartbeats count done and failed from
// this baseline against the full total, so progress stays correct across
// resume, while the completion-rate EWMA — and therefore the ETA — is
// built only from runs this execution actually performs. Call it before
// the first Advance.
func (m *Meter) Resume(done, failed int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done += done
	m.failed += failed
}

// Advance notes n completions (failed of them failed) observed at once —
// one for a sweep sink's run, a batch for a fleet coordinator scanning
// worker run-logs — and emits a heartbeat if the interval has elapsed since
// the last one or the sweep is complete. The wall time since the previous
// observation is spread evenly across the batch, so the EWMA (and therefore
// the ETA) converges to the aggregate completion rate. Advance with n <= 0
// is a no-op.
func (m *Meter) Advance(n, failed int) error {
	if n <= 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	m.done += n
	m.failed += failed
	dt := now.Sub(m.last).Seconds() / float64(n)
	for i := 0; i < n; i++ {
		m.records++
		if m.records == 1 {
			m.ewmaDt = dt
		} else {
			m.ewmaDt = float64((1-ewmaAlpha)*m.ewmaDt) + float64(ewmaAlpha*dt)
		}
	}
	m.last = now
	if m.lastEmit.IsZero() || now.Sub(m.lastEmit) >= m.interval || m.done >= m.total {
		return m.emit(now)
	}
	return nil
}

// Close emits the final heartbeat (even if the interval has not elapsed).
func (m *Meter) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.emit(m.now())
}

// snapshot builds the heartbeat under the lock.
func (m *Meter) snapshot(now time.Time) Heartbeat {
	hb := Heartbeat{
		T:        now.Format(time.RFC3339Nano),
		ElapsedS: now.Sub(m.start).Seconds(),
		Done:     m.done,
		Total:    m.total,
		Failed:   m.failed,
		Workers:  m.workers,
		IdleMs:   now.Sub(m.last).Milliseconds(),
	}
	// Rate and ETA only when they are finite numbers. ewmaDt == 0 is the
	// first-tick / coarse-clock case; a denormally small ewmaDt (a long run
	// of zero-length gaps decaying the EWMA) makes 1/ewmaDt overflow to
	// +Inf, which json must never see.
	if m.ewmaDt > 0 {
		if rps := 1 / m.ewmaDt; !math.IsInf(rps, 0) && !math.IsNaN(rps) {
			hb.RunsPerS = &rps
		}
	}
	if remaining := m.total - m.done; remaining <= 0 {
		// Nothing left: the ETA is a known zero, not an unknown.
		zero := 0.0
		hb.EtaS = &zero
	} else if m.ewmaDt > 0 {
		if eta := float64(remaining) * m.ewmaDt; !math.IsInf(eta, 0) && !math.IsNaN(eta) {
			hb.EtaS = &eta
		}
	}
	return hb
}

func (m *Meter) emit(now time.Time) error {
	m.lastEmit = now
	if m.w == nil {
		return nil
	}
	enc := json.NewEncoder(m.w)
	return enc.Encode(m.snapshot(now))
}

// Activate publishes the meter as the process's "sweep_progress" expvar,
// replacing any previously activated meter. The debug HTTP endpoint
// (DebugServer) serves it under /debug/vars.
func (m *Meter) Activate() {
	Publish("sweep_progress", expvar.Func(func() any {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.snapshot(m.now())
	}))
}
