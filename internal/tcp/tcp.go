// Package tcp is a userspace TCP engine running over the netem substrate:
// three-way handshake, sliding-window byte-stream transfer with 32-bit
// wrap-safe sequence numbers, RFC 6298 retransmission timeout, NewReno
// loss recovery (fast retransmit on three duplicate ACKs, partial-ACK
// retransmission, window inflation/deflation), limited transmit, delayed
// ACKs and receive-side reassembly.
//
// Congestion control is pluggable through the cc package; MPTCP couples
// subflows by handing every subflow Conn the same cc.Algorithm instance.
// The MPTCP data layer attaches through two small interfaces: Source
// (pull-model supplier of payload and the data sequence number it maps to)
// and Sink (consumer of in-order subflow data with that number, plus
// provider of connection-level data ACKs). Only a data sequence number
// crosses the seam: sendData builds the DSS option from it and processData
// reads it back out.
package tcp

import (
	"time"

	"mptcpsim/internal/cc"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/unit"
)

// Protocol parameters. They follow Linux defaults of the paper's era
// (MPTCP v0.94 on ~4.x kernels) where that matters to the dynamics. Only
// DefaultRcvBuf can be overridden (Config); the rest are what every
// connection runs with.
const (
	// DefaultMSS is the maximum segment size (payload bytes) every SYN
	// advertises; a connection sends with the smaller of it and the peer's.
	// It leaves room for the 28-byte DSS option within a 1500-byte MTU:
	// 1500 - 20 (IP) - 20 (TCP) - 28 (DSS) = 1432; rounded down.
	DefaultMSS = 1400
	// DefaultInitialCwnd is the initial window in segments (RFC 6928).
	DefaultInitialCwnd = 10
	// DefaultRcvBuf is the advertised receive buffer.
	DefaultRcvBuf = 4 * unit.MB
	// DefaultDelAckCount acknowledges every second full segment.
	DefaultDelAckCount = 2
	// DefaultDelAckTimeout bounds how long an ACK may be delayed.
	DefaultDelAckTimeout = 40 * time.Millisecond
	// DefaultMinRTO is the Linux lower bound for the retransmission
	// timeout (RFC 6298 allows 1 s; Linux uses 200 ms).
	DefaultMinRTO = 200 * time.Millisecond
	// DefaultMaxRTO caps exponential backoff.
	DefaultMaxRTO = 60 * time.Second
	// synRetries bounds SYN retransmissions before giving up.
	synRetries = 6
	// initialRTO is the pre-sample RTO (RFC 6298 says 1 s).
	initialRTO = time.Second
)

// Config parameterises one connection (or a listener's accepted
// connections). RcvBuf takes its default when zero; the MSS, the initial
// window, the delayed-ACK policy and the RTO bounds are not fields but the
// Default* constants above, since no run varies them.
type Config struct {
	// RcvBuf is the receive buffer / advertised window (0 selects
	// DefaultRcvBuf).
	RcvBuf unit.ByteSize
	// CC is the congestion-control instance; nil is valid for receive-only
	// connections (pure ACKers never consult it).
	CC cc.Algorithm
	// Tag is the forwarding tag stamped on every packet of the connection.
	Tag packet.Tag
	// DisableSACK turns selective acknowledgements off, degrading loss
	// recovery to classic NewReno (one hole per RTT) — an ablation knob.
	DisableSACK bool
	// Timestamps enables the RFC 7323 timestamps option (negotiated on the
	// SYN): one RTT sample per ACK, even during recovery. Off by default,
	// matching the reproduction's tuned baseline.
	Timestamps bool
	// SynOptions are extra TCP options carried on the SYN (MP_CAPABLE /
	// MP_JOIN).
	SynOptions []packet.Option
	// Source supplies payload to transmit; nil means the connection sends
	// nothing (ACK-only).
	Source Source
	// Sink consumes received in-order data; nil discards it.
	Sink Sink
	// FlowID labels the connection's congestion-control view (cc.Flow.ID).
	FlowID string
}

// withDefaults fills an unset RcvBuf.
func (c Config) withDefaults() Config {
	if c.RcvBuf <= 0 {
		c.RcvBuf = DefaultRcvBuf
	}
	return c
}

// Source supplies payload for transmission, pull-model: the sender asks for
// up to max bytes whenever window space opens. Implementations return the
// number of bytes to send now (0 = nothing to send until the next ACK or
// timer asks again) and, when mapped, the MPTCP data sequence number of the
// first of them; mapped=false sends plain TCP.
type Source interface {
	Next(max int) (n int, dsn uint64, mapped bool)
}

// Sink consumes in-order subflow data on the receive side and provides the
// connection-level cumulative data ACK to advertise.
type Sink interface {
	// OnData receives n in-order payload bytes and, when the segment
	// carried a DSS mapping, the data sequence number of the first.
	OnData(n int, dsn uint64, mapped bool)
	// DataAck returns the connection-level ACK to embed in outgoing ACKs;
	// ok=false omits it (plain TCP).
	DataAck() (ack uint64, ok bool)
}

// BulkSource is an infinite backlog (iperf-style) without MPTCP mappings.
type BulkSource struct{}

// Next implements Source.
func (BulkSource) Next(max int) (int, uint64, bool) { return max, 0, false }

// CountSink counts delivered bytes and provides no data-level ACK.
type CountSink struct {
	Bytes uint64
}

// OnData implements Sink.
func (s *CountSink) OnData(n int, _ uint64, _ bool) { s.Bytes += uint64(n) }

// DataAck implements Sink.
func (s *CountSink) DataAck() (uint64, bool) { return 0, false }

// Sequence-space comparisons, wrap-safe (RFC 793 style).
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
func seqGT(a, b uint32) bool  { return int32(a-b) > 0 }
func seqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }

// seqDiff returns a-b as a signed distance.
func seqDiff(a, b uint32) int { return int(int32(a - b)) }
