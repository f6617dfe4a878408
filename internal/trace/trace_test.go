package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mk(name string, step time.Duration, v ...float64) *Series {
	return &Series{Name: name, Step: step, Mbps: v}
}

func TestAtAndTimeAt(t *testing.T) {
	s := mk("x", 100*time.Millisecond, 1, 2, 3)
	if s.At(0) != 1 || s.At(150*time.Millisecond) != 2 || s.At(250*time.Millisecond) != 3 {
		t.Fatal("At lookup wrong")
	}
	if s.At(-time.Second) != 0 || s.At(time.Hour) != 0 {
		t.Fatal("out-of-range At must be 0")
	}
	if s.TimeAt(2) != 0.2 {
		t.Fatalf("TimeAt(2) = %v", s.TimeAt(2))
	}
}

func TestClip(t *testing.T) {
	s := mk("x", 100*time.Millisecond, 0, 1, 2, 3, 4, 5)
	c := s.Clip(200*time.Millisecond, 500*time.Millisecond)
	if c.Len() != 3 || c.Mbps[0] != 2 || c.Mbps[2] != 4 {
		t.Fatalf("Clip = %+v", c)
	}
	if c.Start != 200*time.Millisecond {
		t.Fatalf("Clip start = %v", c.Start)
	}
	if e := s.Clip(time.Hour, 2*time.Hour); e.Len() != 0 {
		t.Fatal("out-of-range clip should be empty")
	}
}

func TestStats(t *testing.T) {
	s := mk("x", time.Second, 2, 4, 6, 8)
	mean, min, max, std := s.Stats(0, 0)
	if mean != 5 || min != 2 || max != 8 {
		t.Fatalf("stats = %v %v %v", mean, min, max)
	}
	want := math.Sqrt((9 + 1 + 1 + 9) / 4.0)
	if math.Abs(std-want) > 1e-9 {
		t.Fatalf("std = %v want %v", std, want)
	}
	// Windowed.
	mean, _, _, _ = s.Stats(time.Second, 3*time.Second)
	if mean != 5 {
		t.Fatalf("window mean = %v", mean)
	}
}

func TestSum(t *testing.T) {
	a := mk("a", time.Second, 1, 2, 3)
	b := mk("b", time.Second, 10, 20)
	tot, err := Sum("total", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tot.Len() != 3 || tot.Mbps[0] != 11 || tot.Mbps[1] != 22 || tot.Mbps[2] != 3 {
		t.Fatalf("sum = %v", tot.Mbps)
	}
	c := mk("c", 2*time.Second, 1)
	if _, err := Sum("bad", a, c); err == nil {
		t.Fatal("mismatched step accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	a := mk("a", 500*time.Millisecond, 1, 2)
	b := mk("b", 500*time.Millisecond, 3)
	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "t,a,b\n0.0000,1.0000,3.0000\n0.5000,2.0000,\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestChartRendersSeries(t *testing.T) {
	a := mk("Path 1", 100*time.Millisecond, 10, 20, 30, 40, 50)
	b := mk("Total", 100*time.Millisecond, 50, 60, 70, 80, 90)
	var sb strings.Builder
	err := Chart(&sb, ChartOptions{Title: "fig", HLines: []float64{90}}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fig", "1=Path 1", "2=Total", "y: Mbps", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "1") || !strings.Contains(out, "2") {
		t.Fatal("chart missing data glyphs")
	}
}

func TestChartEmptyDoesNotPanic(t *testing.T) {
	var sb strings.Builder
	if err := Chart(&sb, ChartOptions{}, mk("e", time.Second)); err != nil {
		t.Fatal(err)
	}
}

// Property: Sum is permutation-invariant and Clip never exceeds bounds.
func TestQuickSumClip(t *testing.T) {
	f := func(raw []uint8) bool {
		v := make([]float64, len(raw))
		for i, r := range raw {
			v[i] = float64(r)
		}
		a := mk("a", time.Second, v...)
		b := mk("b", time.Second, v...)
		s1, _ := Sum("s", a, b)
		s2, _ := Sum("s", b, a)
		for i := range s1.Mbps {
			if s1.Mbps[i] != s2.Mbps[i] {
				return false
			}
		}
		c := a.Clip(2*time.Second, 5*time.Second)
		return c.Len() <= 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChartVLines(t *testing.T) {
	s := &Series{Name: "x", Step: 100 * time.Millisecond, Mbps: make([]float64, 40)}
	for i := range s.Mbps {
		s.Mbps[i] = 5
	}
	var buf bytes.Buffer
	if err := Chart(&buf, ChartOptions{VLines: []float64{2.0}}, s); err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Count(line, "|") >= 2 {
			marked++
		}
	}
	// Every plot row except the one the flat series overwrites carries the
	// marker.
	if marked < chartHeight-1 {
		t.Fatalf("vertical marker missing (marked rows = %d):\n%s", marked, buf.String())
	}
	// Out-of-range markers are ignored, not drawn at the edge.
	var buf2 bytes.Buffer
	if err := Chart(&buf2, ChartOptions{VLines: []float64{99}}, s); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf2.String(), "\n") {
		if strings.Count(line, "|") >= 2 {
			t.Fatalf("out-of-range marker drawn:\n%s", buf2.String())
		}
	}
}
