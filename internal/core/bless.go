package core

import (
	"fmt"

	"afcnet/internal/flit"
	"afcnet/internal/topology"
)

// blessCycle performs one cycle of backpressureless (deflection)
// operation. It differs from a plain deflection router in exactly two
// ways (Section III): outputs toward tracked (backpressured-mode)
// neighbors are masked per virtual network when credits run out, and a
// flit left with no usable output is parked in its port's escape latches
// and forces a forward mode-switch.
func (r *Router) blessCycle(now uint64) {
	r.dflits = r.dflits[:0]
	r.dports = r.dports[:0]
	for _, l := range r.latches {
		if l.arrivedAt >= now {
			panic(fmt.Sprintf("afc %d: latch holds current-cycle flit", r.node))
		}
		r.dflits = append(r.dflits, l.f)
		r.dports = append(r.dports, l.port)
	}
	r.latches = r.latches[:0]

	// Credits change this cycle only toward outputs a flit is sent on,
	// which taken masks from then on, so the masks stay exact for the
	// injection stage too.
	usable := r.usableMasks()
	assignments := r.defl.Assign(r.dflits, usable, r.ejectWidth)
	var taken uint8
	for i, a := range assignments {
		f := r.dflits[i]
		if !a.OK {
			r.escapeBuffer(now, r.dports[i], f)
			continue
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
		if r.misrouteThreshold > 0 && f.Deflections >= r.misrouteThreshold {
			r.misrouteTripped = true
		}
		r.blessSend(now, a.Dir, f)
	}

	r.blessInject(now, usable, &taken)
}

func (r *Router) eject(now uint64, f *flit.Flit) {
	r.dispatched++
	if r.meter != nil {
		r.meter.SwArb()
		r.meter.Xbar()
	}
	r.sink.Deliver(now, f)
}

func (r *Router) blessSend(now uint64, d topology.Dir, f *flit.Flit) {
	if ds := &r.down[d]; ds.tracking {
		vn := f.VN
		ds.credits[vn]--
		if ds.credits[vn] == r.cfg.GossipFreeSlots-1 {
			r.gossipLow++
		}
		if ds.credits[vn] < 0 {
			panic(fmt.Sprintf("afc %d: negative credits toward %s vn %s", r.node, d, vn))
		}
	}
	r.dispatched++
	f.Hops++
	r.wires.Ports[d].Out.Send(now, f)
	if r.meter != nil {
		r.meter.SwArb()
		r.meter.Xbar()
		r.meter.LinkHop()
	}
}

// blessInject admits up to one new flit per virtual network, each needing
// an output port that is both free and usable for it (injection-port
// backpressure). A VN whose head finds no such port is skipped, not the
// end of injection: another VN's credits may still open a port.
func (r *Router) blessInject(now uint64, usable [flit.NumVNs]uint8, taken *uint8) {
	r.inj.Run(now, func(vn flit.VN, head *flit.Flit) bool {
		a := r.defl.AssignOne(head, usable[head.VN]&^*taken)
		if !a.OK {
			return true
		}
		f := r.inj.Pop(now, vn)
		*taken |= 1 << a.Dir
		if a.Deflected {
			f.Deflections++
			r.deflections++
		}
		r.blessSend(now, a.Dir, f)
		return true
	})
}

// escapeBuffer parks a flit that found every usable output taken or
// credit-masked (only possible around mode-switch windows) and forces a
// forward switch so the backpressured datapath will drain it.
func (r *Router) escapeBuffer(now uint64, port topology.Dir, f *flit.Flit) {
	if len(r.esc[port]) >= r.escCap {
		panic(fmt.Sprintf("afc %d: escape latch overflow on port %s", r.node, port))
	}
	r.esc[port] = append(r.esc[port], escape{f: f, readyAt: now + 1})
	r.held++
	r.escapeEvents++
	if r.meter != nil {
		r.meter.Latch()
	}
	if r.mode == ModeBless {
		r.beginForwardSwitch(now, false)
	}
}
