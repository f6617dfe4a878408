// Package unit defines the physical quantities used throughout the
// simulator: link rates in bits per second and data sizes in bytes, with
// formatting and the time arithmetic that links need (how long a packet
// occupies a transmitter, how many bytes fit in an interval).
package unit

import (
	"fmt"
	"time"
)

// Rate is a data rate in bits per second.
type Rate int64

// Rate constants in conventional decimal (SI) units, as used for link
// capacities ("40 Mbps" means 40*10^6 bits per second).
const (
	BitPerSecond Rate = 1
	Kbps              = 1000 * BitPerSecond
	Mbps              = 1000 * Kbps
	Gbps              = 1000 * Mbps
)

// Mbit returns the rate expressed in megabits per second.
func (r Rate) Mbit() float64 { return float64(r) / float64(Mbps) }

// TxTime returns how long a transmitter at rate r needs to serialise n
// bytes. A zero or negative rate means an infinitely fast link.
func (r Rate) TxTime(n ByteSize) time.Duration {
	if r <= 0 || n <= 0 {
		return 0
	}
	bits := float64(n) * 8
	return time.Duration(bits / float64(r) * float64(time.Second))
}

// Bytes returns how many whole bytes rate r delivers in duration d.
func (r Rate) Bytes(d time.Duration) ByteSize {
	if r <= 0 || d <= 0 {
		return 0
	}
	return ByteSize(float64(r) / 8 * d.Seconds())
}

// String formats the rate with its natural unit, e.g. "40Mbps".
func (r Rate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dGbps", r/Gbps)
	case r >= Mbps && r%Mbps == 0:
		return fmt.Sprintf("%dMbps", r/Mbps)
	case r >= Kbps && r%Kbps == 0:
		return fmt.Sprintf("%dKbps", r/Kbps)
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// ByteSize is a size in bytes.
type ByteSize int64

// Size constants in binary (IEC) units, used for buffers and windows.
const (
	Byte ByteSize = 1
	KB            = 1024 * Byte
	MB            = 1024 * KB
	GB            = 1024 * MB
)

// String formats a size with its natural unit, e.g. "64KB".
func (b ByteSize) String() string {
	switch {
	case b >= GB && b%GB == 0:
		return fmt.Sprintf("%dGB", b/GB)
	case b >= MB && b%MB == 0:
		return fmt.Sprintf("%dMB", b/MB)
	case b >= KB && b%KB == 0:
		return fmt.Sprintf("%dKB", b/KB)
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}
