package router

import (
	"math/bits"
	"math/rand"
	"sort"

	"afcnet/internal/flit"
	"afcnet/internal/topology"
)

// DeflectPolicy selects how contending flits are prioritized in a
// deflection router.
type DeflectPolicy uint8

// Deflection arbitration policies.
const (
	// PolicyRandom randomizes flit priority each cycle, Chaos-router
	// style. Livelock freedom is probabilistic (Section III-F: a strong
	// guarantee — the probability of non-delivery can be made arbitrarily
	// small). This is the paper's policy.
	PolicyRandom DeflectPolicy = iota
	// PolicyOldest gives priority to the oldest flit (BLESS-style
	// hardware priorities), which makes livelock freedom deterministic.
	// Provided for comparison/ablation.
	PolicyOldest
)

// String implements fmt.Stringer.
func (p DeflectPolicy) String() string {
	if p == PolicyOldest {
		return "oldest"
	}
	return "random"
}

// Assignment is the outcome of deflection port assignment for one flit.
type Assignment struct {
	// Dir is the assigned output; topology.Local means ejection.
	Dir topology.Dir
	// OK is false if no output could be assigned: the caller restricts
	// availability (AFC masking credit-exhausted outputs, fault-blocked
	// links), or the deflector is productive-only and the flit would
	// have been deflected. A pure deflection router on a healthy mesh
	// always succeeds.
	OK bool
	// Deflected reports whether the assignment is a misroute (not a
	// productive direction and not an ejection).
	Deflected bool
}

// Deflector implements the port-assignment step of deflection
// (hot-potato) routing for one router: every contending flit receives some
// free output; at most one flit ejects per cycle; losers are misrouted.
// A productive-only deflector (the drop-based variant) never misroutes:
// losers get OK=false instead.
type Deflector struct {
	mesh           topology.Mesh
	node           topology.NodeID
	policy         DeflectPolicy
	productiveOnly bool
	rng            *rand.Rand

	// routes is node's precomputed route table (per-destination DOR
	// next hop and productive-direction set).
	routes topology.RouteTable

	// scratch buffers reused across cycles to avoid allocation
	order []int
	out   []Assignment
}

// NewDeflector returns a deflector for the router at node, building a
// private route table. Slab-resident routers use Init with the
// network's shared tables instead.
func NewDeflector(mesh topology.Mesh, node topology.NodeID, policy DeflectPolicy, rng *rand.Rand) *Deflector {
	d := &Deflector{}
	d.Init(mesh, node, policy, rng, mesh.Routes(node))
	return d
}

// Init (re)initializes a deflector in place for value embedding, with a
// caller-provided route table — typically a view into the network's
// shared topology.Tables, so the O(N²) table exists once per mesh
// rather than once per deflector.
func (d *Deflector) Init(mesh topology.Mesh, node topology.NodeID, policy DeflectPolicy, rng *rand.Rand, routes topology.RouteTable) {
	d.mesh = mesh
	d.node = node
	d.policy = policy
	d.rng = rng
	d.routes = routes
}

// SetProductiveOnly selects the productive-only fallback: where Assign
// would deflect a flit it returns OK=false instead, drawing no
// randomness. The drop-based router drops and NACKs such flits.
func (d *Deflector) SetProductiveOnly(on bool) { d.productiveOnly = on }

// DORTable exposes the deflector's per-destination DOR table (aliasing
// tests assert it shares the network's backing).
func (d *Deflector) DORTable() []topology.Dir { return d.routes.DOR }

// Reseed rewinds the deflector's arbitration randomness onto a fresh
// stream root. With the scratch buffers carrying no cross-cycle state,
// this restores a freshly constructed deflector bit for bit (the reused-
// network reset path).
func (d *Deflector) Reseed(seed int64) { d.rng.Seed(seed) }

// Assign assigns an output direction to every flit in flits.
//
// usable[vn] is the set of outputs (bit d = output d) that can carry a
// flit of virtual network vn this cycle: the link exists, is not
// fault-blocked, and (for AFC) the downstream router has credits for vn
// if it is in backpressured mode. Bits at NumDirs and above must be
// clear. Assign itself masks ports already taken by higher-priority
// flits. ejectSlots is the number of flits that may eject this cycle.
//
// The returned slice is parallel to flits and is only valid until the next
// call. Flits are prioritized per the policy; each flit takes, in order of
// preference: ejection (if destined here), a productive direction (the
// DOR direction first, so low-load paths match the baseline), any other
// usable direction (a deflection, unless productive-only). OK=false marks
// flits for which no output remained; a caller that never masks outputs
// and allows deflection can treat that as an invariant violation.
func (d *Deflector) Assign(flits []*flit.Flit, usable [flit.NumVNs]uint8, ejectSlots int) []Assignment {
	if cap(d.out) < len(flits) {
		d.out = make([]Assignment, len(flits))
	}
	out := d.out[:len(flits)]
	if len(flits) == 0 {
		return out
	}

	d.order = d.order[:0]
	for i := range flits {
		d.order = append(d.order, i)
	}
	switch d.policy {
	case PolicyOldest:
		sort.SliceStable(d.order, func(a, b int) bool {
			fa, fb := flits[d.order[a]], flits[d.order[b]]
			if aa, ab := fa.InjectedAt, fb.InjectedAt; aa != ab {
				return aa < ab
			}
			if pa, pb := fa.PacketID, fb.PacketID; pa != pb {
				return pa < pb
			}
			return fa.Seq < fb.Seq
		})
	default: // PolicyRandom
		d.rng.Shuffle(len(d.order), func(a, b int) {
			d.order[a], d.order[b] = d.order[b], d.order[a]
		})
	}

	var taken uint8
	for _, idx := range d.order {
		f := flits[idx]
		a := d.assignOne(f, usable[f.VN]&^taken, &ejectSlots)
		if a.OK && a.Dir != topology.Local {
			taken |= 1 << a.Dir
		}
		out[idx] = a
	}
	return out
}

// AssignOne is Assign for a single flit with no ejection slot: the
// injection stage's port assignment. free is the set of outputs (bit d
// = output d) that are usable for f and not yet taken this cycle. One
// flit needs no priority order, so like Assign over a one-flit slice it
// draws no shuffle randomness.
func (d *Deflector) AssignOne(f *flit.Flit, free uint8) Assignment {
	ejectSlots := 0
	return d.assignOne(f, free, &ejectSlots)
}

// Order returns the priority order of the last non-empty Assign call:
// indices into its flits, highest priority first. Valid until the next
// call.
func (d *Deflector) Order() []int { return d.order }

// assignOne picks f's output among free, the outputs still usable for it.
func (d *Deflector) assignOne(f *flit.Flit, free uint8, ejectSlots *int) Assignment {
	dst := f.Dst
	if dst == d.node {
		if *ejectSlots > 0 {
			*ejectSlots--
			return Assignment{Dir: topology.Local, OK: true}
		}
		// Ejection port busy: the flit must be deflected and return later.
	} else {
		// Prefer the DOR next hop, then the other productive direction.
		if dor := d.routes.DOR[dst]; free&(1<<dor) != 0 {
			return Assignment{Dir: dor, OK: true}
		}
		ps := &d.routes.Prod[dst]
		for _, dir := range ps.D[:ps.N] {
			if free&(1<<dir) != 0 {
				return Assignment{Dir: dir, OK: true}
			}
		}
	}

	if d.productiveOnly || free == 0 {
		return Assignment{OK: false}
	}
	// Deflect: pick uniformly among the remaining free outputs (the k-th
	// lowest set bit) so hot spots spread symmetrically.
	k := 0
	if n := bits.OnesCount8(free); n > 1 && d.policy == PolicyRandom {
		k = d.rng.Intn(n)
	}
	for ; k > 0; k-- {
		free &= free - 1
	}
	return Assignment{Dir: topology.Dir(bits.TrailingZeros8(free)), OK: true, Deflected: true}
}
