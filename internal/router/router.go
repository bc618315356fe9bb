// Package router defines the contract and helpers shared by all three
// router implementations (backpressured baseline, backpressureless
// deflection, and AFC): the Router interface, the per-node Site every
// kind is built from, the link bundles that wire routers to their
// neighbors, the local-port interfaces to the network interface,
// round-robin arbitration, and the deflection port-assignment engine and
// injection stage used by the BLESS router and by AFC's backpressureless
// mode.
package router

import (
	"fmt"
	"math/bits"

	"afcnet/internal/energy"
	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/sim"
	"afcnet/internal/topology"
)

// Router is one mesh router. Tick performs one cycle of operation:
// process arrivals latched in previous cycles, arbitrate, transmit, and
// latch this cycle's arrivals. Every router is a sim.Quiescer, so the
// network's router bank can skip it while it is provably idle.
//
// Shard safety: the sharded tick (internal/network's two-phase barrier)
// runs whole row bands of routers concurrently within one cycle, so
// Tick must touch only state the router owns — its own registers and
// meters, its local NI, and the pipes it holds an end of. Anything
// network-global or belonging to another node must go through a staged
// pipe or the network's effect journals; see internal/network/shard.go.
// Implementations must also keep the Quiescer contract exact: whenever
// Quiescent reports true, Tick is bit-for-bit equivalent to
// FastForward(1) — the sharded skip decision is made from a
// start-of-cycle view of the pipe counters and leans on that
// equivalence to stay serial-identical.
//
// Router declares every call the network and the invariant checker make
// on a router of any kind; kind-specific statistics (deflections, drops,
// AFC mode counters) stay on the concrete types. All fault-injection
// calls come from serial ticker context (never inside a sharded
// parallel phase).
type Router interface {
	sim.Quiescer
	Node() topology.NodeID
	// Reset rewinds the router to its freshly built state for the
	// reused-network path. A kind that draws randomness reseeds from
	// src, consuming one stream number exactly as its construction did;
	// a kind that draws none leaves src untouched.
	Reset(src *sim.Source)
	// SetPortBlocked marks (or clears) the data path of output d as
	// unusable: routing treats the link as missing. Used both for
	// permanent dead links and for duty-cycle link throttling.
	SetPortBlocked(d topology.Dir, blocked bool)
	// SetPortDead permanently kills output d: data is blocked and, on
	// kinds that carry them, credit/control traffic stops too.
	SetPortDead(d topology.Dir)
	// SetDead freezes the whole router: Tick and FastForward become
	// no-ops and Quiescent reports true. Held flits stay parked but
	// remain visible to ForEachFlit, so conservation ledgers balance.
	SetDead()
	// ForEachFlit calls fn for every flit the router holds (buffers,
	// escape latches, pipeline latches).
	ForEachFlit(fn func(*flit.Flit))
	// HeldFlits counts the flits ForEachFlit would visit (drain checks).
	HeldFlits() int
}

// Site is everything the network wires up at one node before building
// its router, whatever the kind: the shared route tables, the node's
// link ends and its slot of the per-node in-flight slab, its network
// interface and its energy meter (nil disables accounting). Every
// direction in Neighbors carries all six pipes; the others carry none.
//
// Inbox mirrors the summed in-flight count of every pipe inbound to the
// node, split by pipe class — [0] data, [1] credit, [2] ctrl — through
// link.Pipe.SetTally on each of Wires' In, CreditIn and CtrlIn pipes.
// One cache line then decides quiescence, and each receive scan skips
// outright when its class is idle.
type Site struct {
	Node       topology.NodeID
	Tables     *topology.Tables
	Wires      Wires
	Inbox      *[3]int32
	NI         NI
	Meter      *energy.Meter
	EjectWidth int
}

// Routes returns the node's route table, a view into the shared tables.
func (s Site) Routes() topology.RouteTable { return s.Tables.Routes(s.Node) }

// Neighbors returns the node's wired directions, a view into the shared
// tables.
func (s Site) Neighbors() []topology.Dir { return s.Tables.Neighbors(s.Node) }

// LocalSink receives flits ejected at this node. The network interface
// implements it; per the paper, receive-side buffering is provisioned by
// MSHRs so the sink always accepts.
type LocalSink interface {
	Deliver(now uint64, f *flit.Flit)
}

// LocalSource supplies flits awaiting injection, one FIFO per virtual
// network. Routers pull from it subject to their own injection policy
// (buffer space for backpressured routers; a free output port for
// backpressureless routers, which is the only backpressure they exert).
type LocalSource interface {
	// Peek returns the next flit to inject on vn without removing it, or
	// nil if the vn queue is empty.
	Peek(vn flit.VN) *flit.Flit
	// Pop removes and returns the next flit on vn, or nil.
	Pop(vn flit.VN) *flit.Flit
	// QueuedFlits returns the total flits queued over every vn in O(1);
	// routers consult it every cycle to decide quiescence.
	QueuedFlits() int
}

// NI is a node's network interface as its router sees it: the source it
// injects from and the sink it ejects into.
type NI interface {
	LocalSource
	LocalSink
}

// PortLinks bundles the channels of one mesh port. For a port facing
// direction d at node n, Out/CreditIn/CtrlOut connect toward the neighbor
// in direction d and In/CreditOut/CtrlIn connect from it. Ports at mesh
// boundaries have all-nil links.
type PortLinks struct {
	Out *link.Data // flits we transmit
	In  *link.Data // flits arriving from the neighbor

	CreditOut *link.CreditLink // credits we return upstream (pairs with In)
	CreditIn  *link.CreditLink // credits arriving from downstream (pairs with Out)

	CtrlOut *link.CtrlLink // our mode notifications to the neighbor
	CtrlIn  *link.CtrlLink // the neighbor's mode notifications to us
}

// Wires is the full set of mesh-port links of one router, indexed by
// direction.
type Wires struct {
	Ports [topology.NumDirs]PortLinks
}

// RoundRobin is a stateful round-robin pointer over n slots.
type RoundRobin struct {
	n    int
	next int
}

// NewRoundRobin returns an arbiter over n slots.
func NewRoundRobin(n int) *RoundRobin {
	r := &RoundRobin{}
	r.Init(n)
	return r
}

// Init (re)initializes an arbiter over n slots in place, for arbiters
// embedded by value in slab-resident router state — the cursor then
// lives inside the router's own cache lines instead of behind a
// per-port heap pointer.
func (r *RoundRobin) Init(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("router: round-robin over %d slots", n))
	}
	r.n = n
	r.next = 0
}

// Pick returns the first index i (scanning round-robin from the pointer)
// for which ok(i) is true, advancing the pointer past the grant, or -1 if
// none qualifies.
func (r *RoundRobin) Pick(ok func(i int) bool) int {
	for off := 0; off < r.n; off++ {
		i := (r.next + off) % r.n
		if ok(i) {
			r.next = (i + 1) % r.n
			return i
		}
	}
	return -1
}

// Next grants the slot at the pointer unconditionally and advances it —
// the devirtualized equivalent of Pick with an always-true predicate
// (the deflection routers' per-cycle injection arbitration).
func (r *RoundRobin) Next() int {
	i := r.next
	if i+1 == r.n {
		r.next = 0
	} else {
		r.next = i + 1
	}
	return i
}

// PickMask is Pick restricted to the slots whose bit is set in mask
// (bit i = slot i; bits at or above n must be clear). It is exactly
// equivalent to Pick whenever ok(i) is false for every clear bit —
// the caller's contract — and scans only the set bits, round-robin from
// the pointer, via trailing-zero counts instead of walking every slot.
func (r *RoundRobin) PickMask(mask uint64, ok func(i int) bool) int {
	if mask == 0 {
		return -1
	}
	// Set bits at or after the pointer, in ascending order...
	for m := mask &^ (1<<uint(r.next) - 1); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if ok(i) {
			r.next = (i + 1) % r.n
			return i
		}
	}
	// ...then the wrapped-around set bits before it.
	for m := mask & (1<<uint(r.next) - 1); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if ok(i) {
			r.next = (i + 1) % r.n
			return i
		}
	}
	return -1
}

// Advance rotates the pointer as if k consecutive always-granting Pick
// calls had run — each grants the slot at the pointer and moves it one
// position. The deflection routers arbitrate injection with an
// always-true predicate every cycle, so the active-set kernel replays k
// skipped idle cycles with Advance(k).
func (r *RoundRobin) Advance(k uint64) {
	r.next = int((uint64(r.next) + k%uint64(r.n)) % uint64(r.n))
}

// Reset rewinds the pointer to slot 0, the state of a fresh arbiter.
func (r *RoundRobin) Reset() { r.next = 0 }
