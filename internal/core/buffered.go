package core

import (
	"fmt"
	"math/bits"

	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/topology"
)

// bufferedCycle performs one cycle of backpressured operation with lazy VC
// allocation: every occupied single-flit VC is an independent switch
// candidate (flit-by-flit routing), there is no VC-allocation stage, and
// winners depart with no VC assignment — the downstream buffer write picks
// a free slot.
func (r *Router) bufferedCycle(now uint64) {
	// Fast path: with no buffered flit and no escape entry there is no
	// switch candidate, so neither allocation stage can grant — and a
	// grantless RoundRobin.Pick leaves the pointer untouched, so skipping
	// both stages is bit-for-bit identical to scanning every empty slot.
	// This is the dominant cycle for buffered-mode routers at low load
	// (arrivals in flight on the pipes keep them from full quiescence).
	if r.held == 0 {
		r.bufferedInject(now)
		return
	}

	// Input stage of separable switch allocation: one candidate per input
	// port. Escape latches drain with priority (they are the oldest
	// uncredited flits; see the package comment). wantOut records which
	// output ports have at least one requester, so the output stage can
	// skip the rest (their grantless picks would not move the arbiters).
	var wantOut [topology.NumPorts]bool
	for p := 0; p < topology.NumPorts; p++ {
		r.cands[p] = cand{}
		if r.heldAt[p] == 0 && len(r.esc[p]) == 0 {
			continue
		}
		if e := r.esc[p]; len(e) > 0 && e[0].readyAt <= now {
			f := e[0].f
			out := r.dor[f.Dst]
			if out == topology.Local || r.usableOut(f.VN, out) {
				r.cands[p] = cand{valid: true, escape: true, out: out}
				wantOut[out] = true
				continue
			}
			// Escape head blocked on credits; regular slots may still
			// compete this cycle.
		}
		ok := func(s int) bool {
			sl := &r.in[p][s]
			if sl.f == nil || sl.readyAt > now {
				return false
			}
			out := r.dor[sl.f.Dst]
			return out == topology.Local || r.usableOut(sl.f.VN, out)
		}
		var pick int
		if r.occValid {
			// Occupied slots only; empty slots fail the predicate anyway,
			// so the masked scan grants identically and moves the pointer
			// identically.
			pick = r.inArb[p].PickMask(r.occ[p], ok)
		} else {
			pick = r.inArb[p].Pick(ok)
		}
		if pick >= 0 {
			f := r.in[p][pick].f
			out := r.dor[f.Dst]
			r.cands[p] = cand{valid: true, slot: pick, out: out}
			wantOut[out] = true
		}
	}

	// Output stage: one grant per output port (router.EjectWidth for the
	// ejection port, like every router kind).
	for o := 0; o < topology.NumPorts; o++ {
		out := topology.Dir(o)
		if !wantOut[out] {
			continue
		}
		grants := 1
		if out == topology.Local {
			grants = r.ejectWidth
		}
		for g := 0; g < grants; g++ {
			win := r.outArb[o].Pick(func(p int) bool {
				c := r.cands[p]
				return c.valid && c.out == out
			})
			if win < 0 {
				break
			}
			r.sendBuffered(now, topology.Dir(win), out)
		}
	}

	r.bufferedInject(now)
}

func (r *Router) sendBuffered(now uint64, in, out topology.Dir) {
	c := &r.cands[in]
	c.valid = false
	var f *flit.Flit
	if c.escape {
		f = r.esc[in][0].f
		copy(r.esc[in], r.esc[in][1:])
		r.esc[in] = r.esc[in][:len(r.esc[in])-1]
		r.held--
		// Escape entries are outside the credited SRAM: no credit is
		// returned upstream for them.
	} else {
		sl := &r.in[in][c.slot]
		f = sl.f
		sl.f = nil
		r.occ[in] &^= 1 << uint(c.slot)
		r.held--
		r.heldAt[in]--
		if r.meter != nil {
			r.meter.BufRead()
		}
		if in != topology.Local && !r.deadOut[in] {
			r.wires.Ports[in].CreditOut.Send(now, link.Credit{VC: c.slot, VN: f.VN})
			if r.meter != nil {
				r.meter.Credit()
			}
		}
	}
	if r.meter != nil {
		r.meter.SwArb()
		r.meter.Xbar()
	}
	r.dispatched++

	if out == topology.Local {
		r.sink.Deliver(now, f)
		return
	}
	if ds := &r.down[out]; ds.tracking {
		vn := f.VN
		ds.credits[vn]--
		if ds.credits[vn] == r.cfg.GossipFreeSlots-1 {
			r.gossipLow++
		}
		if ds.credits[vn] < 0 {
			panic(fmt.Sprintf("afc %d: negative credits toward %s vn %s", r.node, out, vn))
		}
	}
	// Lazy VC allocation: the flit departs with no VC; the downstream
	// buffer write assigns one.
	f.VC = flit.NoVC
	f.Hops++
	r.wires.Ports[out].Out.Send(now, f)
	if r.meter != nil {
		r.meter.LinkHop()
	}
}

// bufferedInject pulls up to one flit per virtual network per cycle from
// the NI into free local-port slots (the Garnet-style NI model used by
// every router kind).
func (r *Router) bufferedInject(now uint64) {
	// Empty NI: every peek below would return nil.
	if r.inj.Idle() {
		return
	}
	for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
		f := r.src.Peek(vn)
		if f == nil {
			continue
		}
		s := r.freeSlot(topology.Local, vn)
		if s < 0 {
			continue
		}
		f = r.src.Pop(vn)
		f.InjectedAt = now
		f.VC = s
		r.in[topology.Local][s] = slot{f: f, readyAt: now + 1}
		r.occ[topology.Local] |= 1 << uint(s)
		r.held++
		r.heldAt[topology.Local]++
		if r.meter != nil {
			r.meter.BufWrite()
		}
	}
}

// freeSlot returns a free slot index for vn at port p, or -1. This is the
// lazy VC allocation itself: free slots are pre-discoverable by simple
// daisy-chaining, adding no latency to the critical path (Section III-E).
// Each virtual network's slots are a contiguous ascending range, so the
// trailing-zero count of the free bits inside vnMask is exactly the first
// free slot the reference scan would find.
func (r *Router) freeSlot(p topology.Dir, vn flit.VN) int {
	if r.occValid {
		m := ^r.occ[p] & r.vnMask[vn]
		if m == 0 {
			return -1
		}
		return bits.TrailingZeros64(m)
	}
	for _, s := range r.vnSlots[vn] {
		if r.in[p][s].f == nil {
			return s
		}
	}
	return -1
}
