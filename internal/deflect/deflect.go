// Package deflect implements the backpressureless router of the paper.
//
// Router is the flit-by-flit deflection (hot-potato) router the paper
// evaluates as "backpressureless": on link contention all but one flit are
// misrouted rather than buffered, so the router never exerts backpressure
// on network ports and needs no input buffers (only pipeline latches).
// Arbitration is randomized Chaos-style by default (Section II: priorities
// are not fundamental; randomization gives a probabilistic — and strong —
// livelock-freedom guarantee), with an oldest-first policy available for
// ablation.
//
// Built with a Nacker, the same router runs the drop-based variant
// (SCARAB-like): contending flits that cannot take a productive port are
// dropped and NACKed to the source for retransmission instead of
// deflected. The paper notes this variant saturates at lower loads than
// deflection, which the open-loop sweep reproduces.
//
// Pipeline (Table I): stage 1 is combined routing + port-priority switch
// arbitration, stage 2 is switch traversal plus link traversal with the
// latch write absorbed into link traversal — the same 2-cycle router as
// the baseline. The only backpressure is at the injection port: a new flit
// is accepted only if an output port remains free after all network flits
// are dispatched (footnote 3 of the paper).
package deflect

import (
	"fmt"
	"math/rand"

	"afcnet/internal/energy"
	"afcnet/internal/flit"
	"afcnet/internal/router"
	"afcnet/internal/sim"
	"afcnet/internal/topology"
)

// Nacker carries drop notifications back to packet sources. The paper's
// drop-based designs (e.g. SCARAB) use a dedicated low-cost NACK network
// with guaranteed delivery; the network layer implements this interface by
// scheduling a source retransmission after the NACK's flight time. Nack
// takes ownership of the dropped flit: the retransmission re-packetizes
// from scratch, so the network retires the flit through the drop node's
// NI.
type Nacker interface {
	Nack(now uint64, f *flit.Flit)
}

type latched struct {
	f         *flit.Flit
	arrivedAt uint64
}

// Router is a backpressureless deflection router for one node; with a
// non-nil Nacker it is the drop-based variant.
//
// The field order is a deliberate hot/cold split (see core.Router): the
// leading fields are what the quiescence probe and FastForward touch
// every cycle; the tail is cold configuration/fault/stats state.
// Routers are carved from a Slab in ascending node order — band-major
// for the sharded tick's row bands.
type Router struct {
	// --- hot tick-path core (Quiescent + FastForward) ---

	// dead freezes the router entirely (fault injection): Tick and
	// FastForward become no-ops and Quiescent reports true; latched
	// flits stay parked and countable.
	dead    bool
	latches []latched
	// inbox is this router's slot of the network's per-node aggregate
	// in-flight slab (router.Site): one load replaces a pipe scan.
	inbox *[3]int32
	meter *energy.Meter
	inj   router.Injector

	// --- active-tick working set ---

	defl  router.Deflector
	flits []*flit.Flit // scratch, parallel prefix of latches
	// nbr lists the wired directions, so the per-cycle receive loop
	// skips the empty ports of edge and corner routers. A view into the
	// network's shared topology.Tables.
	nbr []topology.Dir

	// wired marks the outputs with a link (bit d = output d). blocked
	// marks those whose data link is fault-blocked (dead, or throttled
	// closed this duty window); port assignment treats them like missing
	// links and deflects around the fault — or, in drop mode, drops and
	// NACKs a flit whose productive ports all died.
	wired, blocked uint8
	// parked counts overflow flits held back by the fault transient
	// (more latched flits than surviving outputs). While backlog is
	// draining the no-output condition stays legitimate even after a
	// throttled link reopens and blocked clears.
	parked int

	wires router.Wires
	sink  router.LocalSink
	// nack, non-nil in drop mode, carries drop notifications (and the
	// dropped flits) to sources.
	nack Nacker

	// --- cold config/stats tail ---

	node       topology.NodeID
	ejectWidth int

	// Stats
	deflections uint64
	dropped     uint64
}

// Slab is a contiguous bank of deflection routers, carved in ascending
// node order (band-major for the sharded tick's row bands).
type Slab struct {
	routers []Router
	next    int
}

// NewSlab returns a slab with room for count routers.
func NewSlab(count int) *Slab {
	return &Slab{routers: make([]Router, count)}
}

// New carves the next router from the slab and builds it at site. rng
// drives the randomized arbitration policy; a non-nil nack selects drop
// mode.
func (s *Slab) New(site router.Site, policy router.DeflectPolicy, rng *rand.Rand, nack Nacker) *Router {
	if s.next >= len(s.routers) {
		panic("deflect: router slab exhausted")
	}
	r := &s.routers[s.next]
	r.node = site.Node
	r.wires = site.Wires
	r.inbox = site.Inbox
	r.sink = site.NI
	r.meter = site.Meter
	r.nack = nack
	r.ejectWidth = site.EjectWidth
	r.inj.Init(site.NI)
	r.nbr = site.Neighbors()
	for _, d := range r.nbr {
		r.wired |= 1 << d
	}
	r.defl.Init(r.node, policy, rng, site.Routes())
	r.defl.SetProductiveOnly(nack != nil)
	s.next++
	return r
}

// DORTable exposes the deflector's per-destination DOR table and
// NeighborDirs the wired-direction list (aliasing tests assert they
// share the network's topology.Tables backing).
func (r *Router) DORTable() []topology.Dir { return r.defl.DORTable() }

// NeighborDirs reports the router's wired mesh directions.
func (r *Router) NeighborDirs() []topology.Dir { return r.nbr }

// Node implements router.Router.
func (r *Router) Node() topology.NodeID { return r.node }

// Reset rewinds the router to its freshly constructed state (empty
// latches, arbiters at slot 0, stats zeroed), reseeding the arbitration
// randomness from src's next stream — the number a fresh construction
// would have consumed. Part of the cross-cell network-reuse path.
func (r *Router) Reset(src *sim.Source) {
	r.defl.Reseed(src.StreamSeed())
	r.inj.Reset()
	r.latches = r.latches[:0]
	r.flits = r.flits[:0]
	r.blocked = 0
	r.parked = 0
	r.dead = false
	r.deflections = 0
	r.dropped = 0
}

// SetPortBlocked marks (or clears) output d as fault-blocked: port
// assignment then treats the link as missing and deflects around it (or
// drops flits that have no other productive port). Scenario link
// throttling toggles this at duty-window boundaries.
func (r *Router) SetPortBlocked(d topology.Dir, blocked bool) {
	if blocked {
		r.blocked |= 1 << d
	} else {
		r.blocked &^= 1 << d
	}
}

// SetPortDead marks output d permanently dead. Deflection routers carry
// neither credits nor control on their links, so dead and blocked
// coincide here.
func (r *Router) SetPortDead(d topology.Dir) { r.SetPortBlocked(d, true) }

// SetDead freezes the router entirely (scenario dead-router fault):
// Tick and FastForward become no-ops and Quiescent reports true, so
// latched flits stay parked — still visible to ForEachFlit, keeping the
// checker's conservation ledger balanced.
func (r *Router) SetDead() { r.dead = true }

// Deflections returns the number of misroutes issued by this router
// (always zero in drop mode).
func (r *Router) Deflections() uint64 { return r.deflections }

// DroppedFlits returns the number of flits dropped by this router
// (always zero outside drop mode).
func (r *Router) DroppedFlits() uint64 { return r.dropped }

// Tick implements one cycle: every latched flit ejects, advances, or —
// when it loses every productive port — is deflected (or, in drop mode,
// dropped and NACKed); then the injection stage admits flits while an
// output remains free; then this cycle's arrivals latch.
func (r *Router) Tick(now uint64) {
	if r.dead {
		return
	}
	if r.meter != nil {
		r.meter.StaticTick()
	}

	r.flits = r.flits[:0]
	for _, l := range r.latches {
		if l.arrivedAt >= now {
			panic(fmt.Sprintf("deflect %d: latch holds current-cycle flit", r.node))
		}
		r.flits = append(r.flits, l.f)
	}
	r.latches = r.latches[:0]
	carried := r.parked
	r.parked = 0

	// Deflection links carry no credits: every VN sees the same outputs.
	outs := r.wired &^ r.blocked
	var usable [flit.NumVNs]uint8
	for vn := range usable {
		usable[vn] = outs
	}
	assignments := r.defl.Assign(r.flits, usable, r.ejectWidth)
	order := r.defl.Order()
	var taken uint8
	for k := range assignments {
		// Drop mode dispatches in priority order, which sets the order of
		// same-cycle NACKs (the NACK heap's tie order); deflect mode
		// dispatches in latch order, which is the order overflow parks in
		// and so feeds the next cycle's shuffle.
		i := k
		if r.nack != nil {
			i = order[k]
		}
		f, a := r.flits[i], assignments[i]
		if !a.OK && r.nack != nil {
			r.drop(now, f)
			continue
		}
		if !a.OK {
			// Impossible on a healthy mesh (outputs >= latched inputs).
			// With fault-blocked links the transient after a fault can
			// leave more latched flits than surviving outputs — and the
			// backlog can outlive the block itself when a throttled link
			// reopens. Park the overflow for next cycle instead of
			// panicking — the graceful-degradation half of scenario
			// fault injection.
			if r.blocked != 0 || carried > 0 {
				r.latches = append(r.latches, latched{f: f, arrivedAt: now})
				r.parked++
				continue
			}
			panic(fmt.Sprintf("deflect %d: no output for flit %v", r.node, f))
		}
		if a.Dir == topology.Local {
			r.eject(now, f)
			continue
		}
		taken |= 1 << a.Dir
		if a.Deflected {
			f.Deflections++
			r.deflections++
		}
		r.send(now, a.Dir, f)
	}

	r.inj.Run(now, func(vn flit.VN, head *flit.Flit) bool {
		return r.inject(now, vn, head, outs, &taken)
	})
	r.receive(now)
}

func (r *Router) eject(now uint64, f *flit.Flit) {
	if r.meter != nil {
		r.meter.SwArb()
		r.meter.Xbar()
	}
	r.sink.Deliver(now, f)
}

func (r *Router) send(now uint64, d topology.Dir, f *flit.Flit) {
	f.Hops++
	r.wires.Ports[d].Out.Send(now, f)
	if r.meter != nil {
		r.meter.SwArb()
		r.meter.Xbar()
		r.meter.LinkHop()
	}
}

// drop hands a flit that lost every productive port (drop mode) to the
// Nacker, which NACKs its source for retransmission and retires it.
func (r *Router) drop(now uint64, f *flit.Flit) {
	r.dropped++
	r.nack.Nack(now, f)
}

// inject offers vn's armed head flit an output left free by the network
// flits — the only backpressure a backpressureless router exerts
// (footnote 3 of the paper). Each VN may inject one flit per cycle. It
// reports whether the injection stage should go on to the next VN:
// deflect mode stops at the first VN that finds no free output, while
// drop mode skips it, since another VN's head may still have a free
// productive port.
func (r *Router) inject(now uint64, vn flit.VN, head *flit.Flit, outs uint8, taken *uint8) bool {
	a := r.defl.AssignOne(head, outs&^*taken)
	if !a.OK {
		return r.nack != nil
	}
	f := r.inj.Pop(now, vn)
	*taken |= 1 << a.Dir
	if a.Deflected {
		f.Deflections++
		r.deflections++
	}
	r.send(now, a.Dir, f)
	return true
}

// receive latches this cycle's arrivals for dispatch next cycle.
func (r *Router) receive(now uint64) {
	// inbox is the aggregate in-flight count toward this node: zero
	// means every Recv below would miss, so skip the scan outright.
	if r.inbox[0] == 0 {
		return
	}
	for _, d := range r.nbr {
		pl := &r.wires.Ports[d]
		if f, ok := pl.In.Recv(now); ok {
			r.latches = append(r.latches, latched{f: f, arrivedAt: now})
			if r.meter != nil {
				r.meter.Latch()
			}
		}
	}
}

// Quiescent implements the kernel's active-set contract (sim.Quiescer):
// ticking is a provable no-op when no flit is latched, in flight toward
// this router, or awaiting injection. Deflection routers use neither
// credits nor the control line, so data pipes are the only wake source
// (drop-mode retransmissions enqueue into the NI queue, so NACK wakeups
// arrive through the source check). An idle tick draws no randomness
// (Assign returns early on an empty flit set) and mutates only the
// meter, the injection round-robin pointer, and the idle injection
// registers — all replayed exactly by FastForward. The sharded tick
// (internal/network/shard.go) depends on that Tick == FastForward(1)
// equivalence being exact: its skip decision cannot see same-cycle
// sends parked in staged boundary registers, which is only sound
// because skipping such a router changes nothing.
func (r *Router) Quiescent(now uint64) bool {
	if r.dead {
		return true
	}
	if len(r.latches) != 0 {
		return false
	}
	if r.inbox[0] != 0 {
		return false
	}
	return r.inj.Idle()
}

// FastForward applies k skipped idle cycles (sim.Quiescer): each idle
// tick accrues static energy and runs an idle injection stage, both
// replayed in bulk.
func (r *Router) FastForward(k uint64) {
	if r.dead {
		return
	}
	if r.meter != nil {
		r.meter.StaticTicks(k)
	}
	r.inj.FastForward(k)
}

// HeldFlits returns the number of flits currently held in pipeline
// latches (drain checks).
func (r *Router) HeldFlits() int { return len(r.latches) }

// ForEachFlit calls fn for every flit currently latched in this router
// (invariant checker's conservation and age scans).
func (r *Router) ForEachFlit(fn func(*flit.Flit)) {
	for _, l := range r.latches {
		fn(l.f)
	}
}
