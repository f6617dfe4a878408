package unit

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTxTime(t *testing.T) {
	tests := []struct {
		rate  Rate
		bytes ByteSize
		want  time.Duration
	}{
		{40 * Mbps, 1500, time.Duration(1500 * 8 * 1e9 / 40e6)}, // 300µs
		{100 * Mbps, 1500, 120 * time.Microsecond},
		{1 * Gbps, 1500, 12 * time.Microsecond},
		{0, 1500, 0},
		{10 * Mbps, 0, 0},
	}
	for _, tc := range tests {
		if got := tc.rate.TxTime(tc.bytes); got != tc.want {
			t.Errorf("%v.TxTime(%d) = %v, want %v", tc.rate, tc.bytes, got, tc.want)
		}
	}
}

func TestBytesInInterval(t *testing.T) {
	if got := (40 * Mbps).Bytes(time.Second); got != 5000000 {
		t.Errorf("40Mbps over 1s = %d bytes, want 5000000", got)
	}
	if got := (100 * Mbps).Bytes(100 * time.Millisecond); got != 1250000 {
		t.Errorf("100Mbps over 100ms = %d, want 1250000", got)
	}
}

func TestRateString(t *testing.T) {
	tests := map[Rate]string{
		40 * Mbps:   "40Mbps",
		2 * Gbps:    "2Gbps",
		250 * Kbps:  "250Kbps",
		999:         "999bps",
		1500 * Kbps: "1500Kbps",
	}
	for r, want := range tests {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(r), got, want)
		}
	}
}

func TestByteSizeString(t *testing.T) {
	tests := map[ByteSize]string{
		64 * KB: "64KB",
		2 * MB:  "2MB",
		3 * GB:  "3GB",
		1500:    "1500B",
		1536:    "1536B", // not an exact KB multiple of the formatter's units
	}
	for b, want := range tests {
		if got := b.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(b), got, want)
		}
	}
}

// Property: TxTime and Bytes are approximate inverses.
func TestQuickTxTimeBytesInverse(t *testing.T) {
	f := func(mbps uint8, kb uint8) bool {
		r := Rate(int64(mbps)+1) * Mbps
		n := ByteSize(int64(kb)+1) * KB
		d := r.TxTime(n)
		back := r.Bytes(d)
		diff := int64(back - n)
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1 // rounding slack of one byte
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
