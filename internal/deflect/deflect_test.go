package deflect

import (
	"math/rand"
	"testing"

	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

type fakeNI struct {
	queues    [flit.NumVNs][]*flit.Flit
	delivered []*flit.Flit
}

func (f *fakeNI) Peek(vn flit.VN) *flit.Flit {
	if len(f.queues[vn]) == 0 {
		return nil
	}
	return f.queues[vn][0]
}

func (f *fakeNI) Pop(vn flit.VN) *flit.Flit {
	fl := f.Peek(vn)
	if fl != nil {
		f.queues[vn] = f.queues[vn][1:]
	}
	return fl
}

func (f *fakeNI) Deliver(_ uint64, fl *flit.Flit) { f.delivered = append(f.delivered, fl) }

const testLinkLat = 2

// harness drives a single deflection router at the center of a 3x3 mesh,
// holding the far end of all four links.
type harness struct {
	r     *Router
	ni    *fakeNI
	now   uint64
	wires router.Wires
}

func newHarness(t *testing.T, node topology.NodeID) *harness {
	t.Helper()
	mesh := topology.NewMesh(3, 3)
	h := &harness{ni: &fakeNI{}}
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		if _, ok := mesh.Neighbor(node, d); !ok {
			continue
		}
		h.wires.Ports[d] = router.PortLinks{
			Out:       link.NewData(testLinkLat + 1),
			In:        link.NewData(testLinkLat + 1),
			CreditOut: link.NewCredit(testLinkLat),
			CreditIn:  link.NewCredit(testLinkLat),
			CtrlOut:   link.NewCtrl(testLinkLat),
			CtrlIn:    link.NewCtrl(testLinkLat),
		}
	}
	h.r = New(mesh, node, router.PolicyRandom, 1, rand.New(rand.NewSource(9)),
		h.wires, h.ni, h.ni, nil, nil)
	return h
}

func (h *harness) tick() {
	h.r.Tick(h.now)
	h.now++
}

func (h *harness) recvAll() map[topology.Dir]*flit.Flit {
	out := map[topology.Dir]*flit.Flit{}
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		if h.wires.Ports[d].Out == nil {
			continue
		}
		if f, ok := h.wires.Ports[d].Out.Recv(h.now); ok {
			out[d] = f
		}
	}
	return out
}

func mk(id uint64, src, dst topology.NodeID) *flit.Flit {
	return &flit.Flit{PacketID: id, Len: 1, Src: src, Dst: dst, VN: flit.VNReq}
}

// TestEveryLatchedFlitDepartsNextCycle is the defining deflection
// invariant: flits never wait in the router.
func TestEveryLatchedFlitDepartsNextCycle(t *testing.T) {
	h := newHarness(t, 4)
	// Saturate: one flit on every input every cycle for 200 cycles.
	sent, out := 0, 0
	for c := 0; c < 200; c++ {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			f := mk(uint64(c*10+int(d)), 0, 8) // none destined here
			if h.wires.Ports[d].In.CanSend(h.now) {
				h.wires.Ports[d].In.Send(h.now, f)
				sent++
			}
		}
		h.tick()
		out += len(h.recvAll())
		if h.r.LatchedFlits() > topology.NumDirs {
			t.Fatalf("latch occupancy %d exceeds port count", h.r.LatchedFlits())
		}
	}
	// Everything in must come out (minus what is still in flight in the
	// last couple of cycles).
	for c := 0; c < 10; c++ {
		h.tick()
		out += len(h.recvAll())
	}
	if out+len(h.ni.delivered) != sent {
		t.Fatalf("in %d, out %d + delivered %d", sent, out, len(h.ni.delivered))
	}
}

// TestContendingFlitsOneWinsOthersDeflect: four flits all wanting East
// must all depart, exactly one on East.
func TestContendingFlitsOneWinsOthersDeflect(t *testing.T) {
	h := newHarness(t, 4)
	// node 4 center, dst 5 is directly East
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		h.wires.Ports[d].In.Send(h.now, mk(uint64(d), 0, 5))
	}
	got := map[topology.Dir]*flit.Flit{}
	for c := 0; c < 10; c++ {
		h.tick()
		for d, f := range h.recvAll() {
			got[d] = f
		}
	}
	if len(got) != 4 {
		t.Fatalf("dispatched %d flits, want 4", len(got))
	}
	if got[topology.East] == nil {
		t.Fatal("no flit took the productive East port")
	}
	defl := 0
	for d, f := range got {
		if d != topology.East && f.Deflections != 1 {
			t.Errorf("flit on %s has %d deflections, want 1", d, f.Deflections)
		}
		if d != topology.East {
			defl++
		}
	}
	if defl != 3 || h.r.Deflections() != 3 {
		t.Errorf("deflections = %d (router says %d), want 3", defl, h.r.Deflections())
	}
}

// TestEjectionContention: two flits destined here, one ejects, the other
// is deflected and must not be lost.
func TestEjectionContention(t *testing.T) {
	h := newHarness(t, 4)
	h.wires.Ports[topology.East].In.Send(h.now, mk(1, 0, 4))
	h.wires.Ports[topology.West].In.Send(h.now, mk(2, 0, 4))
	sentOut := 0
	for c := 0; c < 10; c++ {
		h.tick()
		sentOut += len(h.recvAll())
	}
	if len(h.ni.delivered) != 1 {
		t.Fatalf("ejected %d flits in one cycle, want 1", len(h.ni.delivered))
	}
	if sentOut != 1 {
		t.Fatalf("deflected %d flits, want 1", sentOut)
	}
}

// TestInjectionBackpressure: with all output ports taken by network
// flits, the router must not inject (footnote 3).
func TestInjectionBackpressure(t *testing.T) {
	h := newHarness(t, 4)
	h.ni.queues[flit.VNReq] = append(h.ni.queues[flit.VNReq], mk(99, 4, 8))
	// Keep all four inputs busy so all four outputs are taken every cycle.
	// (The first few cycles cover link latency before the squeeze is on;
	// the injection register also needs one arming cycle, so check only
	// the steady state from cycle 5 on.)
	for c := 0; c < 5; c++ {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			if h.wires.Ports[d].In.CanSend(h.now) {
				h.wires.Ports[d].In.Send(h.now, mk(uint64(500+c*10+int(d)), 0, 8))
			}
		}
		h.tick()
		h.recvAll()
	}
	h.ni.queues[flit.VNReq] = h.ni.queues[flit.VNReq][:0]
	h.ni.queues[flit.VNReq] = append(h.ni.queues[flit.VNReq], mk(99, 4, 8))
	for c := 0; c < 20; c++ {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			if h.wires.Ports[d].In.CanSend(h.now) {
				h.wires.Ports[d].In.Send(h.now, mk(uint64(100+c*10+int(d)), 0, 8))
			}
		}
		h.tick()
		h.recvAll()
	}
	if len(h.ni.queues[flit.VNReq]) != 1 {
		t.Fatal("router injected despite full output ports")
	}
	// Once inputs quiesce, the flit injects.
	for c := 0; c < 10; c++ {
		h.tick()
		h.recvAll()
	}
	if len(h.ni.queues[flit.VNReq]) != 0 {
		t.Fatal("router failed to inject after ports freed")
	}
}

// TestInjectionPipelineLatency: an injected flit spends one cycle in the
// injection register before port assignment (2-cycle router for injected
// flits too).
func TestInjectionPipelineLatency(t *testing.T) {
	h := newHarness(t, 4)
	h.ni.queues[flit.VNReq] = append(h.ni.queues[flit.VNReq], mk(7, 4, 5))
	h.tick() // cycle 0: arming only
	if got := h.recvAll(); len(got) != 0 {
		t.Fatal("flit dispatched in arming cycle")
	}
	h.tick() // cycle 1: injected + sent
	h.tick()
	h.tick()
	h.tick() // arrives at out link after lat+1 = 3 cycles (sent at 1 -> visible at 4)
	if f, ok := h.wires.Ports[topology.East].Out.Peek(h.now - 1); ok && f != nil {
		t.Log("flit visible one early — timing drift")
	}
	got, ok := h.wires.Ports[topology.East].Out.Recv(4)
	if !ok || got.PacketID != 7 {
		t.Fatalf("injected flit not on East at cycle 4: %v %v", got, ok)
	}
	if got.InjectedAt != 0 {
		t.Errorf("InjectedAt = %d, want 0 (register entry)", got.InjectedAt)
	}
}

// TestCornerRouterNeverStuck: corner routers have only 2 links; even
// fully loaded they must dispatch everything.
func TestCornerRouterNeverStuck(t *testing.T) {
	h := newHarness(t, 0) // corner: East and South only
	sent, out := 0, 0
	for c := 0; c < 100; c++ {
		for _, d := range []topology.Dir{topology.East, topology.South} {
			if h.wires.Ports[d].In.CanSend(h.now) {
				h.wires.Ports[d].In.Send(h.now, mk(uint64(c*10+int(d)), 8, 8))
				sent++
			}
		}
		h.tick()
		for _, d := range []topology.Dir{topology.East, topology.South} {
			if _, ok := h.wires.Ports[d].Out.Recv(h.now); ok {
				out++
			}
		}
	}
	for c := 0; c < 10; c++ {
		h.tick()
		for _, d := range []topology.Dir{topology.East, topology.South} {
			if _, ok := h.wires.Ports[d].Out.Recv(h.now); ok {
				out++
			}
		}
	}
	if out != sent {
		t.Fatalf("corner router lost flits: in %d out %d", sent, out)
	}
}
