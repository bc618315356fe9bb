package core

import (
	"afcnet/internal/link"
	"afcnet/internal/topology"
)

// decideMode evaluates the mode-transition policies at the end of each
// cycle (Figure 1 of the paper).
func (r *Router) decideMode(now uint64) {
	if r.alwaysBuffered {
		return
	}
	switch r.mode {
	case ModeBless:
		if r.misrouteThreshold > 0 {
			// Rejected policy (ablation A7): only misroute observations
			// and gossip can trigger the forward switch.
			if r.misrouteTripped {
				r.misrouteTripped = false
				r.beginForwardSwitch(now, false)
				return
			}
		} else if r.monitor.Value() > r.th.High {
			r.beginForwardSwitch(now, false)
			return
		}
		if r.gossipTriggered() {
			r.beginForwardSwitch(now, true)
		}
	case ModeBuffered:
		if r.monitor.Value() < r.th.Low && r.buffersEmpty() {
			r.beginReverseSwitch(now)
		}
	}
}

// gossipTriggered reports whether a tracked downstream virtual network has
// fewer than X free buffers (Section III-D's "sledgehammer" condition).
// Credits are per-VN under lazy VC allocation, so the watermark applies
// per VN: once one VN's free count falls below X, flits of that VN could
// soon find the port unusable and pile up locally.
//
// The condition is read every cycle by Quiescent (see the "Shard safety"
// notes there), so it is maintained incrementally: gossipLow counts the
// below-watermark (tracked direction, VN) pairs, updated at every credit
// increment/decrement and tracking toggle, making this a register
// compare on the idle path.
func (r *Router) gossipTriggered() bool { return r.gossipLow > 0 }

// gossipLowFull returns how many virtual networks sit below the gossip
// watermark at full credits — nonzero only in the unusual configuration
// where the watermark exceeds a VN's buffer capacity.
func (r *Router) gossipLowFull() int {
	n := 0
	for _, c := range r.cfg.VCsPerVN {
		if c < r.cfg.GossipFreeSlots {
			n++
		}
	}
	return n
}

// gossipLowAt returns how many of direction d's tracked per-VN credit
// counts currently sit below the gossip watermark (0 when untracked).
func (r *Router) gossipLowAt(d topology.Dir) int {
	ds := &r.down[d]
	if !ds.tracking {
		return 0
	}
	n := 0
	for _, c := range ds.credits {
		if c < r.cfg.GossipFreeSlots {
			n++
		}
	}
	return n
}

// beginForwardSwitch starts the 2L-cycle transition to backpressured mode
// (Section III-B): neighbors are notified immediately (the notification
// arrives L cycles later and they start counting credits from then);
// arrivals continue through the backpressureless datapath until
// bufferedFrom = T+2L+1, the first cycle at which a flit sent under credit
// accounting can arrive.
func (r *Router) beginForwardSwitch(now uint64, gossip bool) {
	r.mode = ModeSwitching
	r.bufferedFrom = now + uint64(2*r.linkLat) + 1
	r.forwardSwitches++
	if gossip {
		r.gossipSwitches++
	}
	if r.meter != nil {
		// Wake the buffers immediately (conservative: leakage accrues for
		// the whole switch window).
		r.meter.SetGated(false)
	}
	r.notifyNeighbors(now, link.CtrlStartCredits)
}

// beginReverseSwitch switches to backpressureless mode in the very next
// cycle (Section III-C): legal only with empty buffers, so no flit can be
// trapped. Neighbors keep decrementing credits until the stop
// notification lands; the discrepancy is only unnecessary accounting.
func (r *Router) beginReverseSwitch(now uint64) {
	r.mode = ModeBless
	r.reverseSwitches++
	if r.meter != nil {
		r.meter.SetGated(true)
	}
	r.notifyNeighbors(now, link.CtrlStopCredits)
}

func (r *Router) notifyNeighbors(now uint64, c link.Ctrl) {
	for _, d := range r.nbr {
		if !r.deadOut[d] { // a dead wire loses the notification
			r.wires.Ports[d].CtrlOut.Send(now, c)
		}
	}
}

// buffersEmpty reports whether every SRAM slot and escape latch is free.
func (r *Router) buffersEmpty() bool { return r.held == 0 }
