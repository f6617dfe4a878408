package mptcp

import (
	"mptcpsim/internal/packet"
	"mptcpsim/internal/tcp"
)

// RecvConn is the receiver side of an MPTCP connection: it reassembles the
// 64-bit data sequence space from the subflows' in-order byte streams and
// exposes connection-level goodput.
type RecvConn struct {
	// Token identifies the connection (from the initiator's key).
	Token uint32

	dsnExpected uint64
	// ooo holds out-of-order data-level chunks sorted by DSN, one per
	// arriving mapping (never coalesced: duplicate accounting is per chunk).
	ooo chunkList
	// Delivered counts in-order data bytes handed to the application.
	Delivered uint64
	// DupBytes counts bytes discarded as data-level duplicates (redundant
	// scheduler overlap).
	DupBytes uint64

	// subflows counts the subflows attached by token; the tests check the
	// demultiplexing of joins with it.
	subflows int
}

// OOOBytes returns the bytes currently parked in the out-of-order
// reassembly buffer — received at the data level but not yet deliverable.
// Data-level conservation audits need it: bytes assigned by the sender
// must equal delivered + duplicate + out-of-order + still-in-transit.
func (rc *RecvConn) OOOBytes() uint64 {
	var n uint64
	rc.ooo.each(func(c dchunk) { n += uint64(c.n) })
	return n
}

// DataAck returns the connection-level cumulative acknowledgement.
func (rc *RecvConn) DataAck() uint64 { return rc.dsnExpected }

// push consumes one in-order subflow segment: n bytes at data sequence
// number dsn when mapped.
func (rc *RecvConn) push(n int, dsn uint64, mapped bool) {
	if !mapped {
		// Plain segment without a mapping (should not happen from our
		// sender); count it as delivered payload.
		rc.Delivered += uint64(n)
		return
	}
	rc.insert(dsn, n)
	rc.drain()
}

// insert adds a chunk, trimming overlap with already-delivered data.
func (rc *RecvConn) insert(dsn uint64, n int) {
	end := dsn + uint64(n)
	if end <= rc.dsnExpected {
		rc.DupBytes += uint64(n)
		return
	}
	if dsn < rc.dsnExpected {
		rc.DupBytes += rc.dsnExpected - dsn
		n = int(end - rc.dsnExpected)
		dsn = rc.dsnExpected
	}
	b, i := rc.ooo.seek(dsn)
	if c := rc.ooo.at(b, i); c != nil && c.dsn == dsn {
		if c.n >= n {
			rc.DupBytes += uint64(n)
			return // fully duplicate
		}
		rc.DupBytes += uint64(c.n)
		c.n = n
		return
	}
	rc.ooo.insert(b, i, dchunk{dsn: dsn, n: n})
}

// drain delivers contiguous chunks at dsnExpected and retires them from
// the front of the queue; the chunks still waiting are not moved.
func (rc *RecvConn) drain() {
	for rc.ooo.len() > 0 {
		c := rc.ooo.front()
		if c.dsn > rc.dsnExpected {
			break
		}
		rc.ooo.popFront()
		end := c.dsn + uint64(c.n)
		if end <= rc.dsnExpected {
			rc.DupBytes += uint64(c.n)
			continue
		}
		if c.dsn < rc.dsnExpected {
			rc.DupBytes += rc.dsnExpected - c.dsn
		}
		fresh := int(end - rc.dsnExpected)
		rc.dsnExpected = end
		rc.Delivered += uint64(fresh)
	}
}

// sfSink adapts one subflow's tcp.Sink to the connection reassembly.
type sfSink struct {
	rc *RecvConn
}

// OnData implements tcp.Sink.
func (s *sfSink) OnData(n int, dsn uint64, mapped bool) { s.rc.push(n, dsn, mapped) }

// DataAck implements tcp.Sink.
func (s *sfSink) DataAck() (uint64, bool) { return s.rc.DataAck(), true }

// Acceptor listens for MPTCP connections on a host port. Subflows carrying
// MP_CAPABLE open a new connection; MP_JOIN subflows attach to the
// connection their token names.
type Acceptor struct {
	// conns is scanned by token: a run opens one connection, a host a
	// handful.
	conns []*RecvConn
}

// Listen starts accepting MPTCP connections on h:port with the given
// per-subflow TCP template (SACK, timestamps, RcvBuf).
func Listen(h *tcp.Host, port packet.Port, tmpl tcp.Config, a *Acceptor) error {
	return h.Listen(port, &tcp.Listener{
		ConfigFor: func(synOpts []packet.Option, from packet.Endpoint) tcp.Config {
			rc := a.match(synOpts)
			cfg := tmpl
			cfg.Sink = &sfSink{rc: rc}
			return cfg
		},
	})
}

// match finds or creates the RecvConn for a subflow's SYN options.
func (a *Acceptor) match(opts []packet.Option) *RecvConn {
	var token uint32
	for _, o := range opts {
		switch v := o.(type) {
		case *packet.MPCapable:
			token = TokenFromKey(v.Key)
		case *packet.MPJoin:
			token = v.Token
		}
	}
	for _, rc := range a.conns {
		if rc.Token == token {
			rc.subflows++
			return rc
		}
	}
	rc := &RecvConn{Token: token, subflows: 1}
	a.conns = append(a.conns, rc)
	return rc
}

// Conns returns the accepted connections in arrival order.
func (a *Acceptor) Conns() []*RecvConn { return a.conns }

// Release hands the reassembly blocks on to later connections; a's may not
// be used again.
func (a *Acceptor) Release() {
	for _, rc := range a.conns {
		rc.ooo.release()
	}
}
