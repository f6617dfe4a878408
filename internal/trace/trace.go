// Package trace holds the time-series machinery behind the paper's
// figures: fixed-step series (throughput per sampling bin), arithmetic
// over them, CSV export, and a terminal ASCII renderer that stands in for
// the paper's plots.
package trace

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Series is a fixed-step throughput series: Mbps[i] is the rate in the
// bin starting at Start + i*Step.
type Series struct {
	// Name labels the series ("Path 1", "Total").
	Name string
	// Start is the offset of the first bin from the run start.
	Start time.Duration
	// Step is the bin width.
	Step time.Duration
	// Mbps holds one value per bin.
	Mbps []float64
}

// TimeAt returns the start time of bin i in seconds.
func (s *Series) TimeAt(i int) float64 {
	return (s.Start + time.Duration(i)*s.Step).Seconds()
}

// Len returns the number of bins.
func (s *Series) Len() int { return len(s.Mbps) }

// At returns the value of the bin covering time t (0 outside the series).
func (s *Series) At(t time.Duration) float64 {
	if s.Step <= 0 {
		return 0
	}
	i := int((t - s.Start) / s.Step)
	if i < 0 || i >= len(s.Mbps) {
		return 0
	}
	return s.Mbps[i]
}

// Clip returns the sub-series covering [from, to).
func (s *Series) Clip(from, to time.Duration) Series {
	out := Series{Name: s.Name, Step: s.Step}
	if s.Step <= 0 {
		return out
	}
	lo := int((from - s.Start) / s.Step)
	hi := int((to - s.Start) / s.Step)
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.Mbps) {
		hi = len(s.Mbps)
	}
	if lo >= hi {
		return out
	}
	out.Start = s.Start + time.Duration(lo)*s.Step
	out.Mbps = append([]float64(nil), s.Mbps[lo:hi]...)
	return out
}

// Stats returns mean, min, max and standard deviation over the window
// [from, to) (the whole series if to <= from).
func (s *Series) Stats(from, to time.Duration) (mean, min, max, std float64) {
	lo, hi := 0, len(s.Mbps)
	if to > from && s.Step > 0 {
		lo = int((from - s.Start) / s.Step)
		hi = int((to - s.Start) / s.Step)
		if lo < 0 {
			lo = 0
		}
		if hi > len(s.Mbps) {
			hi = len(s.Mbps)
		}
	}
	if lo >= hi {
		return 0, 0, 0, 0
	}
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range s.Mbps[lo:hi] {
		mean += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	n := float64(hi - lo)
	mean /= n
	for _, v := range s.Mbps[lo:hi] {
		std += float64((v - mean) * (v - mean))
	}
	std = math.Sqrt(std / n)
	return mean, min, max, std
}

// Sum adds series point-wise into a new series named name. All inputs must
// share Step and Start; the result has the length of the longest input.
func Sum(name string, in ...*Series) (*Series, error) {
	if len(in) == 0 {
		return &Series{Name: name}, nil
	}
	out := &Series{Name: name, Start: in[0].Start, Step: in[0].Step}
	for _, s := range in {
		if s.Step != out.Step || s.Start != out.Start {
			return nil, fmt.Errorf("trace: Sum: mismatched series geometry (%v/%v vs %v/%v)",
				s.Start, s.Step, out.Start, out.Step)
		}
		if len(s.Mbps) > len(out.Mbps) {
			out.Mbps = append(out.Mbps, make([]float64, len(s.Mbps)-len(out.Mbps))...)
		}
		for i, v := range s.Mbps {
			out.Mbps[i] += v
		}
	}
	return out, nil
}

// WriteCSV emits "t,<name1>,<name2>,..." rows; t in seconds. All series
// should share geometry; shorter series pad with empty cells.
func WriteCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return nil
	}
	head := make([]string, 0, len(series)+1)
	head = append(head, "t")
	maxLen := 0
	for _, s := range series {
		head = append(head, s.Name)
		if len(s.Mbps) > maxLen {
			maxLen = len(s.Mbps)
		}
	}
	if _, err := fmt.Fprintln(w, strings.Join(head, ",")); err != nil {
		return err
	}
	for i := 0; i < maxLen; i++ {
		row := make([]string, 0, len(series)+1)
		row = append(row, fmt.Sprintf("%.4f", series[0].TimeAt(i)))
		for _, s := range series {
			if i < len(s.Mbps) {
				row = append(row, fmt.Sprintf("%.4f", s.Mbps[i]))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
