package mptcpsim

import "mptcpsim/internal/telemetry"

// FlightRecorder hands the external tests a run's flight recorder, which
// the run's network refers to as one of its taps.
func FlightRecorder(r *Result) *telemetry.Recorder { return r.flight }
