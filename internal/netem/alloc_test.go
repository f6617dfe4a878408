package netem

// The allocation gate for the dataplane: once the loop arena and the
// link's queue/in-flight slices are warm, a packet's whole transit across
// two store-and-forward hops — enqueue, serialisation completion,
// propagation arrival, forwarding, delivery — schedules on pooled event
// nodes and allocates zero heap objects.

import (
	"testing"
	"time"
	"unsafe"

	"mptcpsim/internal/packet"
)

// nullHandler consumes deliveries without touching the heap.
type nullHandler struct{ n int }

func (h *nullHandler) Deliver(*packet.Packet) { h.n++ }

func TestPacketTransitZeroAlloc(t *testing.T) {
	loop, _, a, c, aAddr, cAddr := lineNet(t, 100e6, time.Millisecond, 100*1500)
	h := &nullHandler{}
	if err := c.Register(9001, h); err != nil {
		t.Fatal(err)
	}
	// One reusable packet: the gate measures the transport fabric, not
	// packet construction (senders own their packet allocations).
	p := dataPkt(aAddr, cAddr, 1, 1000)

	// Warm-up: grow the loop arena, both link queues and the in-flight
	// FIFOs to their steady-state footprint.
	for i := 0; i < 64; i++ {
		a.Send(p)
	}
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}

	delivered := h.n
	allocs := testing.AllocsPerRun(200, func() {
		a.Send(p)
		if err := loop.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state packet transit allocates %.1f objects, want 0", allocs)
	}
	if h.n <= delivered {
		t.Fatal("gate measured nothing: no packets were delivered")
	}
}

// TestFrameRecordSize pins the link's queue record at 24 bytes. A 32-byte
// record that also carried the packet's size, so settle need not read the
// packet, bought about 2–3 % sim_s_per_s for +4 % alloc_kb_per_run; growing
// it needs a measurement that says otherwise.
func TestFrameRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(frame{}); n > 24 {
		t.Errorf("frame is %d bytes, want <= 24", n)
	}
}

// TestLinkSize pins the runtime link inside the 352-byte malloc size class.
// Every run allocates one per directed link; at 360 bytes the record took
// the 384-byte class, and screen_stream's short runs allocated 1.7 % more.
func TestLinkSize(t *testing.T) {
	if n := unsafe.Sizeof(Link{}); n > 352 {
		t.Errorf("Link is %d bytes, want <= 352", n)
	}
}
