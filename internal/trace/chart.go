package trace

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// The plot area of a chart, in characters.
const (
	chartWidth  = 72
	chartHeight = 18
)

// ChartOptions controls the ASCII renderer.
type ChartOptions struct {
	// Title heads the chart.
	Title string
	// HLines draws horizontal reference lines at the given values (e.g.
	// the LP optimum).
	HLines []float64
	// VLines draws vertical markers at the given times in seconds (e.g.
	// dynamic network events).
	VLines []float64
}

// seriesMarks are the glyphs used per series, in order.
var seriesMarks = []byte{'1', '2', '3', 'T', '4', '5', '6', '7'}

// Chart renders the series, rates in Mbps, as an ASCII line chart — the
// terminal stand-in for the paper's throughput figures.
func Chart(w io.Writer, opts ChartOptions, series ...*Series) error {
	// The y axis scales to the largest sample.
	var ymax, tmaxSec float64
	for _, s := range series {
		for i, v := range s.Mbps {
			if v > ymax {
				ymax = v
			}
			if t := s.TimeAt(i); t > tmaxSec {
				tmaxSec = t
			}
		}
	}
	if ymax <= 0 {
		ymax = 1
	}
	ymax *= 1.05
	grid := make([][]byte, chartHeight)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", chartWidth))
	}
	// Reference lines first so data overwrites them.
	for _, h := range opts.HLines {
		if r, ok := rowOf(h, ymax); ok {
			for x := 0; x < chartWidth; x++ {
				grid[r][x] = '-'
			}
		}
	}
	for _, t := range opts.VLines {
		if tmaxSec <= 0 || t < 0 || t > tmaxSec {
			continue
		}
		x := int(t / tmaxSec * float64(chartWidth-1))
		for r := 0; r < chartHeight; r++ {
			grid[r][x] = '|'
		}
	}
	for si, s := range series {
		mark := seriesMarks[si%len(seriesMarks)]
		for i, v := range s.Mbps {
			x := 0
			if tmaxSec > 0 {
				x = int(s.TimeAt(i) / tmaxSec * float64(chartWidth-1))
			}
			if x < 0 || x >= chartWidth {
				continue
			}
			if r, ok := rowOf(v, ymax); ok {
				grid[r][x] = mark
			}
		}
	}
	if opts.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", opts.Title); err != nil {
			return err
		}
	}
	axisW := 8
	for r := 0; r < chartHeight; r++ {
		yTop := ymax * float64(chartHeight-r) / float64(chartHeight)
		label := ""
		if r%4 == 0 {
			label = fmt.Sprintf("%7.1f", yTop)
		}
		if _, err := fmt.Fprintf(w, "%*s |%s\n", axisW-1, label, string(grid[r])); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%*s +%s\n", axisW-1, "", strings.Repeat("-", chartWidth)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%*s 0%*s%.2fs\n", axisW-1, "", chartWidth-6, "", tmaxSec); err != nil {
		return err
	}
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", seriesMarks[si%len(seriesMarks)], s.Name))
	}
	legend = append(legend, "y: Mbps")
	_, err := fmt.Fprintf(w, "%*s %s\n", axisW-1, "", strings.Join(legend, "  "))
	return err
}

// rowOf maps a value to a grid row (0 = top).
func rowOf(v, ymax float64) (int, bool) {
	if math.IsNaN(v) || v < 0 || v > ymax {
		return 0, false
	}
	r := chartHeight - 1 - int(v/ymax*chartHeight)
	if r < 0 {
		r = 0
	}
	if r >= chartHeight {
		r = chartHeight - 1
	}
	return r, true
}
