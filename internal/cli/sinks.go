package cli

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mptcpsim"
	"mptcpsim/internal/telemetry"
)

// observer supplies the no-op Flush and Close of sinks that only watch
// completions go by and hold nothing to finalise.
type observer struct{}

func (observer) Flush() error { return nil }
func (observer) Close() error { return nil }

// ProgressSink prints one human-readable line per completed run.
type ProgressSink struct {
	observer
	W io.Writer
}

func (p *ProgressSink) Accept(done, total int, r mptcpsim.RunSummary, _ *mptcpsim.Result) error {
	status := fmt.Sprintf("gap %5.1f%%", r.Gap*100)
	if r.Converged {
		status += fmt.Sprintf(", converged at %.2fs", r.ConvergedAtS)
	}
	if r.Err != "" {
		status = "error: " + r.Err
	}
	fmt.Fprintf(p.W, "[%3d/%d] %s/%s/%s cc=%-6s sched=%-10s order=%-7s seed=%d  %s\n",
		done, total, r.Scenario, r.Perturbation, r.Events, r.CC,
		r.Scheduler, r.OrderString(), r.Seed, status)
	return nil
}

// MeterSink feeds every completion to a heartbeat meter.
type MeterSink struct {
	observer
	Meter *telemetry.Meter
}

func (m *MeterSink) Accept(_, _ int, r mptcpsim.RunSummary, _ *mptcpsim.Result) error {
	// A heartbeat that cannot be written must not void the sweep's results.
	_ = m.Meter.Advance(r.Err != "")
	return nil
}

// MakeFlightDir creates the -flightdir directory flight dumps land in.
func MakeFlightDir(dir string) error { return os.MkdirAll(dir, 0o777) }

// dumpFlight writes a failed run's flight-recorder tail — the last engine
// events before the failure — to <dir>/flight-<index>.ndjson and returns
// the path, or "" when the run left no tail (no partial result, or
// telemetry was off). Indices are unique, so concurrent dumps never
// collide.
func dumpFlight(dir string, index int, res *mptcpsim.Result) (string, error) {
	if res == nil || res.FlightEvents() == 0 {
		return "", nil
	}
	path := filepath.Join(dir, fmt.Sprintf("flight-%d.ndjson", index))
	return path, WriteFile(path, res.WriteFlightRecorder)
}

// FlightSink dumps the flight-recorder tail of every failed run into Dir
// and says so on Stderr. A failed run carries a tail only when it ran
// with telemetry (Sweep.Telemetry, or Options.Telemetry in its own spec).
type FlightSink struct {
	observer
	Dir    string
	Stderr io.Writer
}

func (s *FlightSink) Accept(_, _ int, r mptcpsim.RunSummary, res *mptcpsim.Result) error {
	if r.Err == "" {
		return nil
	}
	switch path, err := dumpFlight(s.Dir, r.Index, res); {
	case err != nil:
		fmt.Fprintf(s.Stderr, "flight dump %s: %v\n", path, err)
	case path != "":
		fmt.Fprintf(s.Stderr, "run %d failed; flight tail in %s\n", r.Index, path)
	}
	return nil
}
