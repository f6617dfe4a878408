// Package mptcp implements the Multipath TCP connection layer on top of
// the tcp engine: one connection striped across several TCP subflows, each
// pinned to its own network path by a forwarding tag — the paper's
// modified-ndiffports path manager ("the exact tags and the number of
// subflows is given as an argument").
//
// The layer provides the 64-bit data sequence space and DSS mappings of
// RFC 6824, connection-level reassembly at the receiver, the segment
// schedulers (min-RTT default, redundant; round-robin is min-RTT under
// another name), and coupled congestion control: all subflows of a
// connection share one cc.Algorithm instance, so LIA/OLIA/BALIA observe and
// balance the whole window vector, while CUBIC/Reno run independently per
// subflow ("uncoupled").
package mptcp

import (
	"fmt"
	"time"

	"mptcpsim/internal/cc"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// SubflowSpec describes one subflow of a connection: its forwarding tag
// (the preselected path) and a label for stats and figures.
type SubflowSpec struct {
	// Tag pins the subflow to a path.
	Tag packet.Tag
	// Label names the subflow in output ("Path 1").
	Label string
	// StartDelay postpones this subflow's handshake relative to the
	// connection start (the first subflow is the "default" path and should
	// usually start at zero).
	StartDelay time.Duration
}

// Config parameterises an MPTCP connection.
type Config struct {
	// Algorithm is the congestion-control name, exactly as the cc
	// registry spells it: "cubic", "reno", "lia", "olia", "balia", "wvegas".
	Algorithm string
	// Scheduler selects the segment scheduler by exact name: "minrtt"
	// (default) or "redundant". "roundrobin" is an accepted alias of "minrtt" that
	// nothing shipped draws; it grants as minrtt does.
	Scheduler string
	// Subflows lists the paths; the first entry is the default subflow.
	Subflows []SubflowSpec
	// TCP is the per-subflow TCP template: DisableSACK, Timestamps and
	// RcvBuf. Tag, CC, Source, Sink, FlowID and SynOptions are set by this
	// package.
	TCP tcp.Config
	// Source supplies application data; nil means infinite bulk (iperf).
	Source DataSource
}

// DataSource supplies connection-level data, pull-model like tcp.Source
// but at the data (DSN) level.
type DataSource interface {
	// NextData returns how many bytes are available to send now, up to
	// max; 0 means nothing to send. The sender asks again only on its own
	// ACKs and timers: a source cannot wake an idle connection.
	NextData(max int) int
}

// bulkData is the infinite iperf-style source.
type bulkData struct{}

func (bulkData) NextData(max int) int { return max }

// Subflow is one TCP subflow of a connection.
type Subflow struct {
	// Spec is the subflow's path specification.
	Spec SubflowSpec
	// TCP is the underlying TCP connection (nil until started).
	TCP *tcp.Conn

	conn *Conn
	// Picks counts scheduler grants that actually put data on this
	// subflow — the per-subflow view of where the scheduler sends its
	// attention. Telemetry only; excluded from result hashes.
	Picks uint64
	// assigned counts DSN bytes mapped onto this subflow (sender side).
	assigned uint64
	// redundantCursor is the end of this subflow's last mapping: its
	// private DSN cursor under the redundant scheduler, not read otherwise.
	redundantCursor uint64
}

// Conn is the sender side of an MPTCP connection.
type Conn struct {
	loop *sim.Loop

	// Token identifies the connection on joins: TokenFromKey of the key its
	// first subflow's MP_CAPABLE carries.
	Token uint32

	sched    Scheduler
	source   DataSource
	subflows []*Subflow

	// dsnNext is the next unassigned data sequence number.
	dsnNext uint64
}

// Dial opens an MPTCP connection from host to raddr:rport, starting one
// TCP subflow per SubflowSpec. The first subflow carries MP_CAPABLE, the
// rest MP_JOIN with the connection token.
func Dial(h *tcp.Host, rng *sim.Rand, cfg Config, raddr packet.Addr, rport packet.Port) (*Conn, error) {
	if len(cfg.Subflows) == 0 {
		return nil, fmt.Errorf("mptcp: no subflows configured")
	}
	algo, err := cc.New(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	sched, err := NewScheduler(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	src := cfg.Source
	if src == nil {
		src = bulkData{}
	}
	key := rng.Uint64()
	c := &Conn{
		loop:   h.Loop(),
		Token:  TokenFromKey(key),
		sched:  sched,
		source: src,
	}
	for i, spec := range cfg.Subflows {
		sf := &Subflow{Spec: spec, conn: c}
		c.subflows = append(c.subflows, sf)
		start := func() {
			tcfg := cfg.TCP
			tcfg.Tag = spec.Tag
			tcfg.CC = algo
			tcfg.Source = &sfSource{sf: sf}
			// No Sink: the experiments are one-way, so reverse-direction data
			// is discarded and the subflow advertises no data-level ACK.
			tcfg.Sink = nil
			tcfg.FlowID = spec.Label
			if i == 0 {
				tcfg.SynOptions = []packet.Option{&packet.MPCapable{Key: key}}
			} else {
				tcfg.SynOptions = []packet.Option{&packet.MPJoin{Token: c.Token, AddrID: uint8(i)}}
			}
			conn, err := h.Dial(tcfg, raddr, rport)
			if err != nil {
				return // port exhaustion cannot happen in practice
			}
			sf.TCP = conn
		}
		if spec.StartDelay > 0 {
			c.loop.Schedule(spec.StartDelay, start)
		} else {
			start()
		}
	}
	return c, nil
}

// Subflows returns the connection's subflows in configuration order.
func (c *Conn) Subflows() []*Subflow { return c.subflows }

// AssignedBytes returns the total data bytes mapped to subflows so far.
func (c *Conn) AssignedBytes() uint64 { return c.dsnNext }

// SentPayloadBytes sums the payload bytes transmitted across all subflows,
// retransmissions included. It upper-bounds what the receiver can account
// for (delivered + duplicate + buffered out of order), which is the
// data-level conservation invariant the check harness asserts.
func (c *Conn) SentPayloadBytes() uint64 {
	var n uint64
	for _, sf := range c.subflows {
		if sf.TCP != nil {
			n += sf.TCP.Stats.SentBytes
		}
	}
	return n
}

// sfSource adapts the connection's data stream to one subflow's tcp.Source.
type sfSource struct {
	sf *Subflow
}

// Next implements tcp.Source: it assigns the subflow its next DSN range.
// Under the redundant scheduler a subflow behind the shared dsnNext
// high-water mark duplicates bytes other subflows already carry; in every
// other case (the leading redundant subflow included) it pulls fresh data
// and advances the mark.
func (s *sfSource) Next(max int) (int, uint64, bool) {
	sf, c := s.sf, s.sf.conn
	dsn, n := c.dsnNext, max
	if c.sched.redundant && sf.redundantCursor < c.dsnNext {
		dsn = sf.redundantCursor
		if behind := c.dsnNext - dsn; uint64(n) > behind {
			n = int(behind)
		}
	} else {
		n = c.source.NextData(n)
		if n <= 0 {
			return 0, 0, false
		}
		c.dsnNext += uint64(n)
	}
	sf.redundantCursor = dsn + uint64(n)
	sf.assigned += uint64(n)
	sf.Picks++
	return n, dsn, true
}

// TokenFromKey derives the connection token advertised in MP_JOIN from the
// MP_CAPABLE key (RFC 6824 uses a SHA-1 truncation; a mix suffices here).
func TokenFromKey(key uint64) uint32 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return uint32(key)
}
