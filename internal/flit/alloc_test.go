package flit

import (
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/topo"
)

// TestLinkTickZeroAlloc pins the flit model's steady-state budget: one
// message sent and drained through the 16-node fabric — injection,
// per-cycle link-queue drain, switch grant/transmit, endpoint delivery
// — must not allocate once the scratch buffers and queue backing
// arrays are warm. The shift-down pops (popFront) and the persistent
// linkQ entries are what this protects.
func TestLinkTickZeroAlloc(t *testing.T) {
	tp := topo.MustNew(16, 4)
	n := NewNetwork(tp, NetConfig{})
	delivered := 0
	for i := 0; i < 16; i++ {
		n.AttachProc(i, func(m *mesg.Message) { delivered++ })
		n.AttachMem(i, func(m *mesg.Message) { delivered++ })
	}
	var m mesg.Message
	sendAndDrain := func() {
		m = mesg.Message{Kind: mesg.ReadReq, Src: mesg.P(3), Dst: mesg.M(12), Addr: 0x1240, ID: 77}
		n.Send(&m)
		for i := 0; i < 200 && !n.Idle(); i++ {
			n.Tick()
		}
	}
	for i := 0; i < 50; i++ {
		sendAndDrain() // warm scratch buffers and queue capacity
	}
	if allocs := testing.AllocsPerRun(200, sendAndDrain); allocs != 0 {
		t.Fatalf("flit send+drain allocates %v per op, want 0", allocs)
	}
	if delivered == 0 || !n.Idle() {
		t.Fatalf("delivered=%d idle=%v, want deliveries and idle fabric", delivered, n.Idle())
	}
}
