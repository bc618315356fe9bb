package router

import "afcnet/internal/flit"

// Injector is the injection stage of the backpressureless datapaths
// (deflect.Router in both its deflect and drop modes, and AFC's bless
// mode), embedded by value in each. It owns the per-VN injection
// registers, the round-robin over virtual networks and the local source
// the stage pulls from; the embedding router decides, per armed head
// flit, whether an output port can take it (footnote 3 of the paper: the
// only backpressure a backpressureless router exerts is at injection).
//
// The fields the idle path (Idle, FastForward) touches lead, so they
// share the embedding router's hot cache lines.
type Injector struct {
	src LocalSource
	arb RoundRobin
	// armedAt models the per-VN injection-stage registers: a flit at the
	// head of a VN's NI queue becomes eligible for port assignment one
	// cycle after it reaches the head, so injected flits see the same
	// 2-cycle router pipeline as network flits. Zero means the register
	// is empty.
	armedAt [flit.NumVNs]uint64
}

// Init (re)initializes the stage in place over src.
func (s *Injector) Init(src LocalSource) {
	s.src = src
	s.arb.Init(flit.NumVNs)
	s.armedAt = [flit.NumVNs]uint64{}
}

// Reset empties the registers and rewinds the round-robin to slot 0,
// the state Init leaves (the reused-network reset path).
func (s *Injector) Reset() {
	s.arb.Reset()
	s.armedAt = [flit.NumVNs]uint64{}
}

// Idle reports whether the local source has nothing queued on any VN —
// the source half of the owning router's Quiescent check.
func (s *Injector) Idle() bool { return s.src.QueuedFlits() == 0 }

// FastForward replays k idle cycles of Run: each rotates the round-robin
// by one and finds every queue empty, zeroing its register (already zero
// after the first idle cycle, so zeroing once is exact).
func (s *Injector) FastForward(k uint64) {
	s.arb.Advance(k)
	s.armedAt = [flit.NumVNs]uint64{}
}

// Run performs one cycle of the stage. Starting at the round-robin
// grant, it advances every VN's register and offers each armed head flit
// to try, which either injects it (through Pop) or declines; try returns
// false to end the cycle's injection without visiting — or arming — the
// remaining VNs.
func (s *Injector) Run(now uint64, try func(vn flit.VN, head *flit.Flit) bool) {
	start := s.arb.Next()
	// Empty NI: every register would find its queue empty, be zeroed and
	// decline, so zeroing them all and returning is bit-for-bit identical.
	if s.Idle() {
		s.armedAt = [flit.NumVNs]uint64{}
		return
	}
	for i := 0; i < flit.NumVNs; i++ {
		vn := flit.VN((start + i) % flit.NumVNs)
		if head := s.armInjection(now, vn); head != nil && !try(vn, head) {
			return
		}
	}
}

// armInjection advances vn's register and returns its head flit if it
// may be injected this cycle, nil otherwise.
func (s *Injector) armInjection(now uint64, vn flit.VN) *flit.Flit {
	f := s.src.Peek(vn)
	if f == nil {
		s.armedAt[vn] = 0
		return nil
	}
	if s.armedAt[vn] == 0 {
		s.armedAt[vn] = now + 1
	}
	if now < s.armedAt[vn] {
		return nil
	}
	return f
}

// Pop removes vn's armed head flit for injection at now and re-arms the
// register for the next head. The flit entered the register the cycle
// before it became eligible; latency accounting starts there, like a
// buffer write.
func (s *Injector) Pop(now uint64, vn flit.VN) *flit.Flit {
	f := s.src.Pop(vn)
	f.InjectedAt = s.armedAt[vn] - 1
	s.armedAt[vn] = now + 1
	return f
}
