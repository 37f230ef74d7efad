package topo

import (
	"fmt"
	"reflect"
	"testing"
)

// --- reference implementation -------------------------------------------
//
// The pre-generalization 2-stage route construction, kept verbatim as
// the differential oracle: on any geometry the old code accepted, the
// arithmetic router must produce byte-identical routes.

type oldT struct {
	Nodes, Radix, Bundle, Leaves, Tops int
}

func oldNew(nodes, radix int) *oldT {
	if nodes%radix != 0 || (radix*radix)%nodes != 0 {
		panic("oldNew: invalid geometry")
	}
	return &oldT{
		Nodes: nodes, Radix: radix,
		Bundle: radix * radix / nodes,
		Leaves: nodes / radix, Tops: nodes / radix,
	}
}

func (t *oldT) lane(a, b int) int            { return (a + b) % t.Bundle }
func (t *oldT) upPort(top, lane int) Port    { return Port(t.Radix + top*t.Bundle + lane) }
func (t *oldT) downPort(leaf, lane int) Port { return Port(leaf*t.Bundle + lane) }

func (t *oldT) forward(proc, mem int) []Hop {
	leaf, top := proc/t.Radix, mem/t.Radix
	c := t.lane(proc, mem)
	return []Hop{
		{Sw: SwitchID{0, leaf}, In: Port(proc % t.Radix), Out: t.upPort(top, c)},
		{Sw: SwitchID{1, top}, In: t.downPort(leaf, c), Out: Port(t.Radix + mem%t.Radix)},
	}
}

func (t *oldT) backward(mem, proc int) []Hop {
	leaf, top := proc/t.Radix, mem/t.Radix
	c := t.lane(proc, mem)
	return []Hop{
		{Sw: SwitchID{1, top}, In: Port(t.Radix + mem%t.Radix), Out: t.downPort(leaf, c)},
		{Sw: SwitchID{0, leaf}, In: t.upPort(top, c), Out: Port(proc % t.Radix)},
	}
}

func (t *oldT) turnaround(src, dst, sel int) []Hop {
	period := t.Tops * t.Bundle
	s := sel % period
	if s < 0 {
		s += period
	}
	sl, dl := src/t.Radix, dst/t.Radix
	if sl == dl {
		return []Hop{{Sw: SwitchID{0, sl}, In: Port(src % t.Radix), Out: Port(dst % t.Radix)}}
	}
	top := s % t.Tops
	cu := t.lane(src, s)
	cd := t.lane(dst, s)
	return []Hop{
		{Sw: SwitchID{0, sl}, In: Port(src % t.Radix), Out: t.upPort(top, cu)},
		{Sw: SwitchID{1, top}, In: t.downPort(sl, cu), Out: t.downPort(dl, cd)},
		{Sw: SwitchID{0, dl}, In: t.upPort(top, cd), Out: Port(dst % t.Radix)},
	}
}

func (t *oldT) interSwitchLinks(sw func(SwitchID) int) []Link {
	var out []Link
	for leaf := 0; leaf < t.Leaves; leaf++ {
		for top := 0; top < t.Tops; top++ {
			for lane := 0; lane < t.Bundle; lane++ {
				out = append(out, Link{Sw: sw(SwitchID{0, leaf}), Out: t.upPort(top, lane)})
			}
		}
	}
	for top := 0; top < t.Tops; top++ {
		for leaf := 0; leaf < t.Leaves; leaf++ {
			for lane := 0; lane < t.Bundle; lane++ {
				out = append(out, Link{Sw: sw(SwitchID{1, top}), Out: t.downPort(leaf, lane)})
			}
		}
	}
	return out
}

// TestTwoStageDifferential pins the arithmetic router to the old
// 2-stage construction, byte for byte, on every geometry the old code
// accepted: forward, backward, turnaround (all selectors), the
// switch-only views, and the fault layer's link enumeration.
func TestTwoStageDifferential(t *testing.T) {
	for _, cfg := range [][2]int{{8, 4}, {16, 4}, {16, 8}, {64, 8}, {4, 2}} {
		bt := MustNew(cfg[0], cfg[1])
		old := oldNew(cfg[0], cfg[1])
		if bt.Stages != 2 {
			t.Fatalf("%v: expected 2 stages", bt)
		}
		if bt.Bundle != old.Bundle || bt.SelPeriod() != old.Tops*old.Bundle {
			t.Fatalf("%v: geometry mismatch with reference (bundle %d vs %d)", bt, bt.Bundle, old.Bundle)
		}
		for p := 0; p < bt.Nodes; p++ {
			for m := 0; m < bt.Nodes; m++ {
				if f, of := bt.Forward(p, m), old.forward(p, m); !reflect.DeepEqual(f, of) {
					t.Fatalf("%v: Forward(%d,%d) = %v, reference %v", bt, p, m, f, of)
				}
				if b, ob := bt.Backward(p, m), old.backward(p, m); !reflect.DeepEqual(b, ob) {
					t.Fatalf("%v: Backward(%d,%d) = %v, reference %v", bt, p, m, b, ob)
				}
				for sel := 0; sel < bt.SelPeriod(); sel++ {
					if ta, ota := bt.Turnaround(p, m, sel), old.turnaround(p, m, sel); !reflect.DeepEqual(ta, ota) {
						t.Fatalf("%v: Turnaround(%d,%d,%d) = %v, reference %v", bt, p, m, sel, ta, ota)
					}
				}
			}
		}
		if got, want := bt.InterSwitchLinks(), old.interSwitchLinks(bt.SwitchOrdinal); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: InterSwitchLinks diverged from reference", bt)
		}
	}
}

// generalConfigs spans s ∈ {2, 3} at radices 4 and 8, plus the 4-stage
// 1024-node machine of the scalability sweep.
var generalConfigs = [][2]int{
	{16, 4}, {64, 8}, // s = 2
	{32, 4}, {64, 4}, {128, 8}, {256, 8}, // s = 3
	{1024, 8}, // s = 4
}

// linkCheck accumulates wiring facts across routes and verifies that
// a (switch, port) endpoint is only ever wired to one peer.
type linkCheck struct {
	t    *testing.T
	bt   *T
	peer map[Link]Link
}

func (lc *linkCheck) link(aSw SwitchID, aPort Port, bSw SwitchID, bPort Port) {
	a := Link{lc.bt.SwitchOrdinal(aSw), aPort}
	b := Link{lc.bt.SwitchOrdinal(bSw), bPort}
	if prev, ok := lc.peer[a]; ok && prev != b {
		lc.t.Fatalf("%v: %v wired to both %v and %v", lc.bt, a, prev, b)
	}
	lc.peer[a] = b
	// The wiring must also agree with the Peer oracle.
	pp := lc.bt.Peer(aSw, aPort)
	if pp.Switch != b.Sw || pp.In != bPort {
		lc.t.Fatalf("%v: Peer(%v, %d) = %+v, route says sw %d port %d", lc.bt, aSw, aPort, pp, b.Sw, bPort)
	}
}

// walk validates one route hop chain: consecutive hops wired
// consistently, ports in range, no switch visited twice.
func (lc *linkCheck) walk(hops []Hop) {
	seen := map[SwitchID]bool{}
	for i, h := range hops {
		if h.In < 0 || int(h.In) >= 2*lc.bt.Radix || h.Out < 0 || int(h.Out) >= 2*lc.bt.Radix {
			lc.t.Fatalf("%v: port out of range in hop %+v", lc.bt, h)
		}
		if h.Sw.Stage < 0 || h.Sw.Stage >= lc.bt.Stages || h.Sw.Index < 0 || h.Sw.Index >= lc.bt.Leaves {
			lc.t.Fatalf("%v: switch out of range in hop %+v", lc.bt, h)
		}
		if seen[h.Sw] {
			lc.t.Fatalf("%v: switch %v visited twice: %v", lc.bt, h.Sw, hops)
		}
		seen[h.Sw] = true
		if i > 0 {
			lc.link(hops[i-1].Sw, hops[i-1].Out, h.Sw, h.In)
			lc.link(h.Sw, h.In, hops[i-1].Sw, hops[i-1].Out)
		}
	}
}

// TestGeneralizedRouteValidity checks, exhaustively per geometry, that
// every (proc, mem) forward route reaches its target in exactly s
// hops, the backward route mirrors it, and every turnaround pivots at
// a legal rank — all over a wiring that stays globally consistent.
func TestGeneralizedRouteValidity(t *testing.T) {
	for _, cfg := range generalConfigs {
		nodes, radix := cfg[0], cfg[1]
		bt := MustNew(nodes, radix)
		lc := &linkCheck{t: t, bt: bt, peer: map[Link]Link{}}
		pairs := func(f func(a, b int)) {
			for a := 0; a < nodes; a++ {
				for b := 0; b < nodes; b++ {
					f(a, b)
				}
			}
		}
		if nodes > 128 {
			// Exhaustive pair coverage is quadratic; big machines sample
			// a stride that still touches every leaf pair.
			pairs = func(f func(a, b int)) {
				for a := 0; a < nodes; a += 7 {
					for b := 0; b < nodes; b += 5 {
						f(a, b)
					}
				}
			}
		}
		pairs(func(p, m int) {
			fwd := bt.Forward(p, m)
			if len(fwd) != bt.Stages {
				t.Fatalf("%v: Forward(%d,%d) has %d hops, want %d", bt, p, m, len(fwd), bt.Stages)
			}
			if fwd[0].Sw != bt.LeafOf(p) || int(fwd[0].In) != p%radix {
				t.Fatalf("%v: Forward(%d,%d) enters at %+v", bt, p, m, fwd[0])
			}
			last := fwd[len(fwd)-1]
			if last.Sw != bt.TopOf(m) || int(last.Out) != radix+m%radix {
				t.Fatalf("%v: Forward(%d,%d) exits at %+v", bt, p, m, last)
			}
			lc.walk(fwd)
			bwd := bt.Backward(m, p)
			if len(bwd) != len(fwd) {
				t.Fatalf("%v: Backward(%d,%d) length %d != forward %d", bt, m, p, len(bwd), len(fwd))
			}
			for i := range fwd {
				rb := bwd[len(bwd)-1-i]
				if fwd[i].Sw != rb.Sw || fwd[i].In != rb.Out || fwd[i].Out != rb.In {
					t.Fatalf("%v: backward not reverse of forward for p=%d m=%d:\n f=%v\n b=%v", bt, p, m, fwd, bwd)
				}
			}
			// The switch-only views agree with the timed routes.
			sf := bt.SwitchesForward(p, m)
			for i := range fwd {
				if sf[i] != fwd[i].Sw {
					t.Fatalf("%v: SwitchesForward(%d,%d) = %v vs hops %v", bt, p, m, sf, fwd)
				}
			}
		})
		sels := bt.SelPeriod()
		if sels > 16 {
			sels = 16
		}
		pairs(func(src, dst int) {
			for sel := 0; sel < sels; sel++ {
				ta := bt.Turnaround(src, dst, sel)
				if src/radix == dst/radix {
					if len(ta) != 1 || ta[0].Sw != bt.LeafOf(src) {
						t.Fatalf("%v: same-leaf Turnaround(%d,%d) = %v", bt, src, dst, ta)
					}
				} else {
					// Cross-leaf: an odd hop count 2ρ+1 with a legal pivot
					// rank 1 ≤ ρ ≤ Stages-1, ascending to the pivot then
					// descending to the destination leaf.
					if len(ta)%2 != 1 || len(ta) < 3 || len(ta) > 2*bt.Stages-1 {
						t.Fatalf("%v: Turnaround(%d,%d,%d) hop count %d", bt, src, dst, sel, len(ta))
					}
					rho := (len(ta) - 1) / 2
					for i, h := range ta {
						want := i
						if i > rho {
							want = 2*rho - i
						}
						if h.Sw.Stage != want {
							t.Fatalf("%v: Turnaround(%d,%d,%d) hop %d at stage %d, want %d: %v",
								bt, src, dst, sel, i, h.Sw.Stage, want, ta)
						}
					}
					// The pivot must actually dominate both leaves: below it
					// the two leaf indices may differ, above it they cannot.
					for j := rho; j < bt.Stages-1; j++ {
						if bt.digit(src/radix, j) != bt.digit(dst/radix, j) {
							t.Fatalf("%v: Turnaround(%d,%d,%d) pivots at rank %d below highest differing digit %d",
								bt, src, dst, sel, rho, j)
						}
					}
					if ta[len(ta)-1].Sw != bt.LeafOf(dst) || int(ta[len(ta)-1].Out) != dst%radix {
						t.Fatalf("%v: Turnaround(%d,%d,%d) delivery %+v", bt, src, dst, sel, ta[len(ta)-1])
					}
				}
				lc.walk(ta)
			}
		})
	}
}

// TestPeerSymmetry checks the bidirectional wiring invariant the xbar
// build relies on: if sw's output p lands on peer input q, the peer's
// output q lands back on sw's input p.
func TestPeerSymmetry(t *testing.T) {
	for _, cfg := range generalConfigs {
		bt := MustNew(cfg[0], cfg[1])
		for ord := 0; ord < bt.NumSwitches(); ord++ {
			sw := bt.OrdinalSwitch(ord)
			if bt.SwitchOrdinal(sw) != ord {
				t.Fatalf("%v: OrdinalSwitch not inverse at %d", bt, ord)
			}
			for p := 0; p < 2*bt.Radix; p++ {
				pp := bt.Peer(sw, Port(p))
				if pp.Switch < 0 {
					if pp.Node < 0 || pp.Node >= bt.Nodes {
						t.Fatalf("%v: %v port %d delivers to bad node %d", bt, sw, p, pp.Node)
					}
					continue
				}
				back := bt.Peer(bt.OrdinalSwitch(pp.Switch), pp.In)
				if back.Switch != ord || back.In != Port(p) {
					t.Fatalf("%v: wiring asymmetric: %v port %d -> sw %d port %d -> sw %d port %d",
						bt, sw, p, pp.Switch, pp.In, back.Switch, back.In)
				}
			}
		}
	}
}

// TestRouteFromSubsumesInjection pins RouteFrom on 2-stage machines to
// the shapes xbar's snooper injection used to build by hand, and
// validates it structurally on deeper machines.
func TestRouteFromSubsumesInjection(t *testing.T) {
	for _, cfg := range generalConfigs {
		bt := MustNew(cfg[0], cfg[1])
		inj := Port(2 * bt.Radix)
		lc := &linkCheck{t: t, bt: bt, peer: map[Link]Link{}}
		step := 1
		if bt.Nodes > 128 {
			step = 11
		}
		for ord := 0; ord < bt.NumSwitches(); ord++ {
			sw := bt.OrdinalSwitch(ord)
			for node := 0; node < bt.Nodes; node += step {
				for _, memSide := range []bool{false, true} {
					h := bt.RouteFrom(sw, inj, memSide, node, node>>1)
					if h[0].Sw != sw || h[0].In != inj {
						t.Fatalf("%v: RouteFrom(%v) starts at %+v", bt, sw, h[0])
					}
					last := h[len(h)-1]
					if memSide {
						if last.Sw != bt.TopOf(node) || int(last.Out) != bt.Radix+node%bt.Radix {
							t.Fatalf("%v: RouteFrom(%v, mem %d) ends at %+v", bt, sw, node, last)
						}
					} else if last.Sw != bt.LeafOf(node) || int(last.Out) != node%bt.Radix {
						t.Fatalf("%v: RouteFrom(%v, proc %d) ends at %+v", bt, sw, node, last)
					}
					// Validate the wiring of every hop past the injection.
					for i := 1; i < len(h); i++ {
						lc.link(h[i-1].Sw, h[i-1].Out, h[i].Sw, h[i].In)
					}
				}
			}
		}
	}
}

// walkPair is the k-th (src, dst) pair of an endpoint walk whose
// period is nodes² pairs (1M at 1024 nodes): src = k mod nodes and
// dst = (k/nodes + 3k) mod nodes, so consecutive pairs share neither
// endpoint and no pair recurs within nodes² steps.
func walkPair(k, nodes int) (src, dst int) { return k % nodes, (k/nodes + 3*k) % nodes }

// TestAppendRoutesReuseBuffer pins what a caller routing every message
// into one reused buffer relies on. On each geometry, every route kind
// appended into a buffer of capacity MaxHops() that still holds a
// longest earlier route equals the freshly allocated route, lives in
// that buffer, and allocates nothing. AppendRouteFrom is checked from
// every switch to both sides.
func TestAppendRoutesReuseBuffer(t *testing.T) {
	for _, g := range []struct{ nodes, radix int }{{16, 4}, {64, 8}, {256, 8}, {1024, 8}} {
		bt := MustNew(g.nodes, g.radix)
		inj := Port(2 * bt.Radix)
		buf := make([]Hop, 0, bt.MaxHops())
		// dirty leaves a longest route in buf, so the next append must
		// overwrite stale hops rather than find a clean array.
		dirty := func() {
			buf = bt.AppendTurnaround(buf[:0], 0, bt.Nodes-1, bt.SelPeriod()-1)
			if len(buf) != bt.MaxHops() {
				t.Fatalf("%v: longest turnaround has %d hops, MaxHops %d", bt, len(buf), bt.MaxHops())
			}
		}
		check := func(what string, got, want []Hop) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: %s appended into a reused buffer = %v, fresh = %v", bt, what, got, want)
			}
			if cap(got) != bt.MaxHops() || &got[:1][0] != &buf[:1][0] {
				t.Fatalf("%v: %s left the reused buffer (cap %d)", bt, what, cap(got))
			}
		}
		pairs := bt.Nodes * bt.Nodes
		if pairs > 1<<14 {
			pairs = 1 << 14
		}
		for k := 0; k < pairs; k++ {
			src, dst := walkPair(k, bt.Nodes)
			sel := k * 37
			dirty()
			check("AppendForward", bt.AppendForward(buf[:0], src, dst), bt.Forward(src, dst))
			dirty()
			check("AppendBackward", bt.AppendBackward(buf[:0], dst, src), bt.Backward(dst, src))
			dirty()
			check("AppendTurnaround", bt.AppendTurnaround(buf[:0], src, dst, sel), bt.Turnaround(src, dst, sel))
		}
		for ord := 0; ord < bt.NumSwitches(); ord++ {
			sw := bt.OrdinalSwitch(ord)
			for i := 0; i < 8; i++ {
				node := (ord*7 + i*131) % bt.Nodes
				for _, memSide := range []bool{false, true} {
					dirty()
					check("AppendRouteFrom", bt.AppendRouteFrom(buf[:0], sw, inj, memSide, node, ord+i),
						bt.RouteFrom(sw, inj, memSide, node, ord+i))
				}
			}
		}
		sw := bt.OrdinalSwitch(bt.NumSwitches() - 1)
		if n := testing.AllocsPerRun(100, func() {
			buf = bt.AppendForward(buf[:0], 1, bt.Nodes-2)
			buf = bt.AppendBackward(buf[:0], bt.Nodes-2, 1)
			buf = bt.AppendTurnaround(buf[:0], 3, bt.Nodes-1, 9)
			buf = bt.AppendRouteFrom(buf[:0], sw, inj, false, 0, 5)
			buf = bt.AppendRouteFrom(buf[:0], sw, inj, true, bt.Nodes/2, 5)
		}); n != 0 {
			t.Fatalf("%v: appending into a reused buffer allocates %v per run", bt, n)
		}
	}
}

// BenchmarkRoute times each route kind appended into one reused buffer
// over walkPair's 1M-pair walk (the walk index wraps at 2^20), at 64
// and 1024 nodes. Turnarounds and routes from a switch take k as their
// path selector, and the from-switch case also walks every switch and
// alternates sides every 1024 steps.
func BenchmarkRoute(b *testing.B) {
	for _, nodes := range []int{64, 1024} {
		bt := MustNew(nodes, 8)
		inj := Port(2 * bt.Radix)
		kinds := []struct {
			name  string
			route func(buf []Hop, k int) []Hop
		}{
			{"forward", func(buf []Hop, k int) []Hop {
				src, dst := walkPair(k, nodes)
				return bt.AppendForward(buf, src, dst)
			}},
			{"backward", func(buf []Hop, k int) []Hop {
				src, dst := walkPair(k, nodes)
				return bt.AppendBackward(buf, dst, src)
			}},
			{"turnaround", func(buf []Hop, k int) []Hop {
				src, dst := walkPair(k, nodes)
				return bt.AppendTurnaround(buf, src, dst, k)
			}},
			{"from-switch", func(buf []Hop, k int) []Hop {
				_, dst := walkPair(k, nodes)
				sw := bt.OrdinalSwitch(k % bt.NumSwitches())
				return bt.AppendRouteFrom(buf, sw, inj, k>>10&1 == 1, dst, k)
			}},
		}
		for _, kd := range kinds {
			b.Run(fmt.Sprintf("%s/nodes=%d", kd.name, nodes), func(b *testing.B) {
				b.ReportAllocs()
				buf := make([]Hop, 0, bt.MaxHops())
				for i := 0; i < b.N; i++ {
					buf = kd.route(buf[:0], i&(1<<20-1))
				}
			})
		}
	}
}
