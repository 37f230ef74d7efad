// Package fault is a deterministic fault-injection harness for the
// DRESAR simulator. A seeded Plan describes which faults to inject and
// how often; an Injector applies them at two attachment points:
//
//   - the network send path (WrapSend): home-bound requests are
//     dropped, duplicated, or delayed. Faults are restricted to
//     ReadReq/WriteReq because those are the only messages the node
//     network interface can recover by retransmission — every other
//     kind carries protocol state (acks, data transfers, invals) whose
//     loss is unrecoverable by design.
//
//   - the switch-directory fabric (AttachSDir): MODIFIED entries are
//     corrupted (owner field flipped to a wrong node) or evicted at
//     scheduled cycles, and whole directories are disabled mid-run,
//     degrading their switches to the base home protocol.
//
// All randomness comes from a plan-seeded sim.RNG, so a given
// (plan, workload, seed) triple replays identically.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"dresar/internal/mesg"
	"dresar/internal/sdir"
	"dresar/internal/sim"
)

// Plan describes a deterministic fault schedule. The zero value
// injects nothing.
type Plan struct {
	// Seed feeds the injector's private RNG. 0 means 1.
	Seed uint64

	// DropPermille / DupPermille / DelayPermille are per-message fault
	// probabilities in parts per thousand, applied independently to
	// each home-bound request (ReadReq/WriteReq) entering the network.
	DropPermille  int
	DupPermille   int
	DelayPermille int

	// MaxDelay bounds the extra latency of a delayed request; the
	// actual delay is uniform in [1, MaxDelay]. 0 means 512 cycles.
	MaxDelay sim.Cycle

	// DropFirst deterministically drops the first N matching requests
	// regardless of probabilities — useful for unit tests that need a
	// guaranteed loss without probability tuning.
	DropFirst int

	// CorruptEvery / EvictEvery schedule periodic switch-directory
	// entry faults: every period, one random MODIFIED entry has its
	// owner flipped to a wrong node (corrupt) or is silently
	// invalidated (evict). 0 disables.
	CorruptEvery sim.Cycle
	EvictEvery   sim.Cycle

	// CorruptCount / EvictCount bound how many periodic faults fire,
	// so the event queue can drain. 0 means 32 when the matching
	// Every is set.
	CorruptCount int
	EvictCount   int

	// DisableAllAt flags every switch directory faulty at the given
	// cycle (1 ≈ from the start). DisableOneAt disables one randomly
	// chosen directory. 0 disables either.
	DisableAllAt sim.Cycle
	DisableOneAt sim.Cycle
}

// Active reports whether the plan injects any fault at all.
func (p Plan) Active() bool {
	return p.DropPermille > 0 || p.DupPermille > 0 || p.DelayPermille > 0 ||
		p.DropFirst > 0 || p.CorruptEvery > 0 || p.EvictEvery > 0 ||
		p.DisableAllAt > 0 || p.DisableOneAt > 0
}

// ParsePlan builds a Plan from a compact comma-separated spec, e.g.
//
//	"seed=7,drop=20,dup=10,delay=50,maxdelay=256,corrupt=500,evict=800,disableall=1000"
//
// Keys: seed, drop, dup, delay (permille), maxdelay, dropfirst,
// corrupt, corruptcount, evict, evictcount, disableall, disableone.
// An empty spec yields the zero (inactive) plan.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	seen := map[string]bool{}
	for _, field := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(field), "=", 2)
		if len(kv) != 2 {
			return p, fmt.Errorf("fault: malformed plan field %q (want key=value)", field)
		}
		v, err := strconv.ParseUint(strings.TrimSpace(kv[1]), 0, 64)
		if err != nil {
			return p, fmt.Errorf("fault: bad value in %q: %v", field, err)
		}
		key := strings.ToLower(strings.TrimSpace(kv[0]))
		if seen[key] {
			return Plan{}, fmt.Errorf("fault: duplicate plan key %q", key)
		}
		seen[key] = true
		switch key {
		case "seed":
			p.Seed = v
		case "drop":
			p.DropPermille = int(v)
		case "dup":
			p.DupPermille = int(v)
		case "delay":
			p.DelayPermille = int(v)
		case "maxdelay":
			p.MaxDelay = sim.Cycle(v)
		case "dropfirst":
			p.DropFirst = int(v)
		case "corrupt":
			p.CorruptEvery = sim.Cycle(v)
		case "corruptcount":
			p.CorruptCount = int(v)
		case "evict":
			p.EvictEvery = sim.Cycle(v)
		case "evictcount":
			p.EvictCount = int(v)
		case "disableall":
			p.DisableAllAt = sim.Cycle(v)
		case "disableone":
			p.DisableOneAt = sim.Cycle(v)
		default:
			return Plan{}, fmt.Errorf("fault: unknown plan key %q (want seed, drop, dup, delay, maxdelay, dropfirst, corrupt, corruptcount, evict, evictcount, disableall, disableone)", kv[0])
		}
	}
	if p.DropPermille > 1000 || p.DupPermille > 1000 || p.DelayPermille > 1000 {
		return Plan{}, fmt.Errorf("fault: permille rates must be <= 1000")
	}
	if p.CorruptCount > 0 && p.CorruptEvery == 0 {
		return Plan{}, fmt.Errorf("fault: corruptcount without a corrupt period")
	}
	if p.EvictCount > 0 && p.EvictEvery == 0 {
		return Plan{}, fmt.Errorf("fault: evictcount without an evict period")
	}
	return p, nil
}

// Stats counts injected faults.
type Stats struct {
	Dropped    uint64 // requests silently discarded
	Duplicated uint64 // requests sent twice
	Delayed    uint64 // requests held back before entering the network
	Corrupted  uint64 // switch-directory owner fields flipped
	Evicted    uint64 // switch-directory MODIFIED entries invalidated
	Disabled   uint64 // switch directories flagged faulty

	// Network fault plan injections (see NetPlan).
	NetCorrupted   uint64 // link transmissions corrupted on the wire
	LinksDowned    uint64 // hard link failures fired
	SwitchesDowned uint64 // whole-switch failures fired
}

func (s Stats) String() string {
	out := fmt.Sprintf("faults: dropped=%d duplicated=%d delayed=%d sdir-corrupted=%d sdir-evicted=%d sdir-disabled=%d",
		s.Dropped, s.Duplicated, s.Delayed, s.Corrupted, s.Evicted, s.Disabled)
	if s.NetCorrupted > 0 || s.LinksDowned > 0 || s.SwitchesDowned > 0 {
		out += fmt.Sprintf("\nnet-faults: corrupted=%d links-downed=%d switches-downed=%d",
			s.NetCorrupted, s.LinksDowned, s.SwitchesDowned)
	}
	return out
}

// Injector applies a Plan to a running machine.
type Injector struct {
	Stats Stats

	plan Plan
	eng  *sim.Engine
	rng  *sim.RNG

	dropLeft int // DropFirst budget remaining
}

// NewInjector builds an injector for the plan, drawing randomness from
// a plan-seeded private RNG.
func NewInjector(plan Plan, eng *sim.Engine) *Injector {
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	if plan.MaxDelay == 0 {
		plan.MaxDelay = 512
	}
	return &Injector{plan: plan, eng: eng, rng: sim.NewRNG(seed), dropLeft: plan.DropFirst}
}

// faultable reports whether a message is in the recoverable fault
// domain: home-bound requests, which the node NI retransmits on
// timeout.
func faultable(m *mesg.Message) bool {
	return m.Kind == mesg.ReadReq || m.Kind == mesg.WriteReq
}

// hit draws one permille Bernoulli trial.
func (in *Injector) hit(permille int) bool {
	return in.rng.Hit(permille)
}

// WrapSend interposes the fault plan on a network send function.
// Dropped messages never reach the network (so the protocol monitor
// never records an obligation for them); duplicated messages are sent
// as a fresh copy with a new network ID but the same transaction ID,
// so the home's duplicate-transaction filter can discard the loser;
// delayed messages enter the network after a bounded random hold.
func (in *Injector) WrapSend(send func(*mesg.Message)) func(*mesg.Message) {
	return func(m *mesg.Message) {
		if !faultable(m) {
			send(m)
			return
		}
		if in.dropLeft > 0 {
			in.dropLeft--
			in.Stats.Dropped++
			return
		}
		if in.hit(in.plan.DropPermille) {
			in.Stats.Dropped++
			return
		}
		if in.hit(in.plan.DupPermille) {
			in.Stats.Duplicated++
			dup := *m
			dup.ID = 0 // the network assigns a fresh ID; Tx stays shared
			send(&dup)
		}
		if in.hit(in.plan.DelayPermille) {
			in.Stats.Delayed++
			d := sim.Cycle(in.rng.Intn(int(in.plan.MaxDelay))) + 1
			in.eng.After(d, func() { send(m) })
			return
		}
		send(m)
	}
}

// AttachSDir schedules the plan's switch-directory faults against a
// fabric: periodic count-bounded corrupt/evict events and the
// disable-at-cycle events. nodes is the machine's node count (corrupt
// picks a wrong owner in [0, nodes)).
func (in *Injector) AttachSDir(f *sdir.Fabric, nodes int) {
	if f == nil {
		return
	}
	if in.plan.CorruptEvery > 0 {
		count := in.plan.CorruptCount
		if count == 0 {
			count = 32
		}
		in.periodic(in.plan.CorruptEvery, count, func() {
			if f.CorruptRandom(in.rng, nodes) {
				in.Stats.Corrupted++
			}
		})
	}
	if in.plan.EvictEvery > 0 {
		count := in.plan.EvictCount
		if count == 0 {
			count = 32
		}
		in.periodic(in.plan.EvictEvery, count, func() {
			if f.EvictRandom(in.rng) {
				in.Stats.Evicted++
			}
		})
	}
	if in.plan.DisableOneAt > 0 && f.DirCount() > 0 {
		ord := in.rng.Intn(f.DirCount())
		in.eng.At(in.plan.DisableOneAt, func() {
			f.DisableOrdinal(ord)
			in.Stats.Disabled++
		})
	}
	if in.plan.DisableAllAt > 0 {
		in.eng.At(in.plan.DisableAllAt, func() {
			before := f.DisabledCount()
			f.DisableAll()
			in.Stats.Disabled += uint64(f.DisabledCount() - before)
		})
	}
}

// periodic fires fn every `every` cycles, count times total, then
// stops — bounding the event count so the engine can drain.
func (in *Injector) periodic(every sim.Cycle, count int, fn func()) {
	var tick func()
	tick = func() {
		fn()
		count--
		if count > 0 {
			in.eng.After(every, tick)
		}
	}
	in.eng.After(every, tick)
}
