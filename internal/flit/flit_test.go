package flit

import (
	"testing"

	"dresar/internal/mesg"
	"dresar/internal/sim"
)

func header(id uint64) *mesg.Message {
	return &mesg.Message{ID: id, Kind: mesg.ReadReq, Addr: id * 32, Src: mesg.P(0), Dst: mesg.M(0)}
}
func dataMsg(id uint64) *mesg.Message {
	return &mesg.Message{ID: id, Kind: mesg.ReadReply, Addr: id * 32, Src: mesg.M(0), Dst: mesg.P(0)}
}

// offerAll pushes a packetized message into (port, vc), ticking as
// needed to respect credits; it returns the cycle the last flit was
// accepted.
func offerAll(s *Switch, port, vc int, fs []Flit) uint64 {
	for _, f := range fs {
		for !s.Offer(port, vc, f) {
			s.Tick()
		}
	}
	return s.Now()
}

// runUntilIdle ticks until the switch drains, returning collected
// flits per output and the cycle of the last delivery.
func runUntilIdle(t *testing.T, s *Switch) (map[int][]Flit, uint64) {
	t.Helper()
	got := map[int][]Flit{}
	last := uint64(0)
	for i := 0; i < 10000 && !s.Idle(); i++ {
		s.Tick()
		for o := 0; o < 4; o++ {
			fs := s.Collect(o)
			if len(fs) > 0 {
				last = s.Now()
			}
			got[o] = append(got[o], fs...)
		}
	}
	if !s.Idle() {
		t.Fatal("switch did not drain")
	}
	return got, last
}

func TestPacketize(t *testing.T) {
	fs := Packetize(header(1), 5, 2)
	if len(fs) != 1 || !fs[0].Head || !fs[0].Tail || fs[0].Msg == nil || fs[0].out != 2 {
		t.Fatalf("header packet: %+v", fs)
	}
	fs = Packetize(dataMsg(2), 7, 3)
	if len(fs) != 5 {
		t.Fatalf("data packet = %d flits", len(fs))
	}
	if !fs[0].Head || fs[0].Tail || !fs[4].Tail || fs[4].Head {
		t.Fatalf("head/tail marking wrong: %+v", fs)
	}
	for _, f := range fs {
		if f.Age != 7 || f.MsgID != 2 {
			t.Fatalf("flit fields: %+v", f)
		}
	}
}

func TestSingleFlitLatency(t *testing.T) {
	s := MustNew(Config{Ports: 4})
	offerAll(s, 0, 0, Packetize(header(1), 0, 2))
	_, last := runUntilIdle(t, s)
	// Granted on the first tick (cycle 1), core-delayed to cycle 5,
	// then serialized: matches the message-level model's core(4) +
	// link(4) within one cycle of grant alignment.
	if last < 5 || last > 9 {
		t.Fatalf("1-flit traversal took %d cycles, want ~5-9 (core 4 + link)", last)
	}
}

func TestWormholeContiguity(t *testing.T) {
	s := MustNew(Config{Ports: 4})
	// Two 5-flit messages from different inputs racing for output 1:
	// their flits must not interleave on the link.
	a := Packetize(dataMsg(1), 0, 1)
	b := Packetize(dataMsg(2), 1, 1)
	for i := 0; i < 4; i++ { // respect 4-flit buffers: feed alternately
		s.Offer(0, 0, a[i])
		s.Offer(1, 0, b[i])
	}
	offerAll(s, 0, 0, a[4:])
	offerAll(s, 1, 0, b[4:])
	got, _ := runUntilIdle(t, s)
	fs := got[1]
	if len(fs) != 10 {
		t.Fatalf("delivered %d flits, want 10", len(fs))
	}
	// Check contiguity: once a message's head appears, its 5 flits
	// are consecutive.
	for i := 0; i < 10; i += 5 {
		id := fs[i].MsgID
		if !fs[i].Head {
			t.Fatalf("flit %d not a head: %+v", i, fs[i])
		}
		for j := i; j < i+5; j++ {
			if fs[j].MsgID != id {
				t.Fatalf("interleaved wormholes: %v", fs)
			}
		}
		if !fs[i+4].Tail {
			t.Fatalf("missing tail at %d", i+4)
		}
	}
}

func TestAgeArbitrationOldestFirst(t *testing.T) {
	s := MustNew(Config{Ports: 4})
	young := Packetize(header(1), 10, 2)
	old := Packetize(header(2), 3, 2)
	s.Offer(0, 0, young[0])
	s.Offer(1, 0, old[0])
	got, _ := runUntilIdle(t, s)
	fs := got[2]
	if len(fs) != 2 || fs[0].MsgID != 2 {
		t.Fatalf("older message did not win: %+v", fs)
	}
}

func TestParallelOutputsSameCycle(t *testing.T) {
	s := MustNew(Config{Ports: 4})
	for p := 0; p < 4; p++ {
		s.Offer(p, 0, Packetize(header(uint64(p+1)), 0, p)[0])
	}
	s.Tick()
	if s.Stats.Granted != 4 {
		t.Fatalf("granted %d in one cycle, want 4 (parallel outputs)", s.Stats.Granted)
	}
}

func TestMaxGrantsPerCycle(t *testing.T) {
	s := MustNew(Config{Ports: 4})
	// 8 candidates (4 ports x 2 VCs) all to distinct... only 4 outputs
	// exist; use 4 to distinct outputs per VC so 8 candidates compete
	// for 4 outputs; at most 4 grants per cycle and wormhole locks
	// serialize the rest.
	for p := 0; p < 4; p++ {
		for v := 0; v < 2; v++ {
			s.Offer(p, v, Packetize(header(uint64(p*2+v+1)), uint64(v), p)[0])
		}
	}
	s.Tick()
	if s.Stats.Granted > MaxGrants {
		t.Fatalf("granted %d in one cycle, cap is %d", s.Stats.Granted, MaxGrants)
	}
	runUntilIdle(t, s)
	if s.Stats.Granted != 8 {
		t.Fatalf("total granted = %d, want 8", s.Stats.Granted)
	}
}

func TestBufferBackpressure(t *testing.T) {
	s := MustNew(Config{Ports: 4})
	fs := Packetize(dataMsg(1), 0, 1)
	for i := 0; i < BufFlits; i++ {
		if !s.Offer(0, 0, fs[i]) {
			t.Fatalf("offer %d refused below capacity", i)
		}
	}
	if s.Offer(0, 0, fs[4]) {
		t.Fatal("offer above capacity accepted")
	}
	if s.Credits(0, 0) != 0 {
		t.Fatalf("credits = %d", s.Credits(0, 0))
	}
	s.Tick() // one flit drains into the core
	if s.Credits(0, 0) == 0 {
		t.Fatal("no credit returned after drain")
	}
	if !s.Offer(0, 0, fs[4]) {
		t.Fatal("offer refused after credit return")
	}
	got, _ := runUntilIdle(t, s)
	if len(got[1]) != 5 {
		t.Fatalf("delivered %d", len(got[1]))
	}
}

func TestDirectorySinkConsumesMessage(t *testing.T) {
	sunk := 0
	s := MustNew(Config{
		Ports: 4, SnoopPorts: 2,
		Snoop: func(m *mesg.Message) Verdict {
			sunk++
			return Verdict{Sink: m.Kind == mesg.ReadReq}
		},
	})
	offerAll(s, 0, 0, Packetize(header(1), 0, 1))  // sunk
	offerAll(s, 1, 0, Packetize(dataMsg(2), 0, 1)) // passes
	got, _ := runUntilIdle(t, s)
	ids := map[uint64]int{}
	for _, f := range got[1] {
		ids[f.MsgID]++
	}
	if ids[1] != 0 {
		t.Fatal("sunk message reached the output")
	}
	if ids[2] != 5 {
		t.Fatalf("passing message flits = %d", ids[2])
	}
	if s.Stats.Sunk != 1 {
		t.Fatalf("stats: %+v", s.Stats)
	}
}

func TestSnoopPortContention(t *testing.T) {
	seen := 0
	s := MustNew(Config{
		Ports: 4, SnoopPorts: 2,
		Snoop: func(m *mesg.Message) Verdict { seen++; return Verdict{} },
	})
	// Four headers in one cycle, 2 ports: two must wait a cycle.
	for p := 0; p < 4; p++ {
		s.Offer(p, 0, Packetize(header(uint64(p+1)), 0, p)[0])
	}
	s.Tick()
	if seen != 2 {
		t.Fatalf("snooped %d in first cycle, want 2 (2-port SRAM)", seen)
	}
	if s.Stats.SnoopWait == 0 {
		t.Fatal("no snoop wait recorded")
	}
	s.Tick()
	if seen != 4 {
		t.Fatalf("snooped %d after second cycle, want 4", seen)
	}
	runUntilIdle(t, s)
}

// TestMessageModelEquivalence validates DESIGN.md substitution 4: on
// an uncontended path, the flit-level switch and the message-level
// model (core 4 + flits×4 link cycles) agree on traversal time.
func TestMessageModelEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flits int
		mk    func() *mesg.Message
	}{
		{"header-only", 1, func() *mesg.Message { return header(1) }},
		{"data", 5, func() *mesg.Message { return dataMsg(1) }},
	} {
		s := MustNew(Config{Ports: 4})
		offerAll(s, 0, 0, Packetize(tc.mk(), 0, 1))
		_, last := runUntilIdle(t, s)
		msgModel := uint64(CoreCycles + tc.flits*LinkCyclesPerFlit)
		// Allow one cycle of grant alignment slack either way.
		if last+1 < msgModel || last > msgModel+1 {
			t.Fatalf("%s: flit-level %d cycles vs message model %d", tc.name, last, msgModel)
		}
	}
}

func TestRandomTrafficConservation(t *testing.T) {
	rng := sim.NewRNG(5)
	sunkWant := 0
	s := MustNew(Config{
		Ports: 4, SnoopPorts: 2,
		Snoop: func(m *mesg.Message) Verdict {
			if m.ID%7 == 0 {
				sunkWant++
				return Verdict{Sink: true}
			}
			return Verdict{}
		},
	})
	var queues [4][2][]Flit
	flitsIn, sunkFlits := 0, 0
	for id := uint64(1); id <= 200; id++ {
		var m *mesg.Message
		if rng.Intn(2) == 0 {
			m = header(id)
		} else {
			m = dataMsg(id)
		}
		fs := Packetize(m, id, rng.Intn(4))
		p, v := rng.Intn(4), rng.Intn(2)
		queues[p][v] = append(queues[p][v], fs...)
		flitsIn += len(fs)
		if id%7 == 0 {
			sunkFlits += len(fs)
		}
	}
	delivered := 0
	for i := 0; i < 100000; i++ {
		for p := 0; p < 4; p++ {
			for v := 0; v < 2; v++ {
				for len(queues[p][v]) > 0 && s.Offer(p, v, queues[p][v][0]) {
					queues[p][v] = queues[p][v][1:]
				}
			}
		}
		s.Tick()
		for o := 0; o < 4; o++ {
			delivered += len(s.Collect(o))
		}
		empty := true
		for p := 0; p < 4; p++ {
			for v := 0; v < 2; v++ {
				if len(queues[p][v]) > 0 {
					empty = false
				}
			}
		}
		if empty && s.Idle() {
			break
		}
	}
	if !s.Idle() {
		t.Fatal("did not drain")
	}
	// Every message with an ID divisible by 7 is sunk: 28 of 200.
	if s.Stats.Sunk != 28 || int(s.Stats.Sunk) != sunkWant {
		t.Fatalf("sunk %d messages (snoop sank %d), want 28", s.Stats.Sunk, sunkWant)
	}
	// Conservation: every flit offered is delivered exactly once unless
	// its message was sunk, and every offer eventually lands.
	if accepted := int(s.Stats.Offered - s.Stats.Refused); accepted != flitsIn {
		t.Fatalf("switch accepted %d flits, offered %d", accepted, flitsIn)
	}
	if delivered != flitsIn-sunkFlits {
		t.Fatalf("delivered %d flits, want %d offered - %d of sunk messages", delivered, flitsIn, sunkFlits)
	}
}
