package deflect

import (
	"math/rand"
	"testing"

	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

type recordingNacker struct {
	nacks []*flit.Flit
}

func (r *recordingNacker) Nack(_ uint64, f *flit.Flit) { r.nacks = append(r.nacks, f) }

type dropHarness struct {
	r     *Router
	ni    *fakeNI
	nack  *recordingNacker
	now   uint64
	wires router.Wires
}

func newDropHarness(t *testing.T, node topology.NodeID) *dropHarness {
	t.Helper()
	return newDropHarnessPolicy(t, node, router.PolicyRandom)
}

func newDropHarnessPolicy(t *testing.T, node topology.NodeID, policy router.DeflectPolicy) *dropHarness {
	t.Helper()
	mesh := topology.NewMesh(3, 3)
	h := &dropHarness{ni: &fakeNI{}, nack: &recordingNacker{}}
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		if _, ok := mesh.Neighbor(node, d); !ok {
			continue
		}
		h.wires.Ports[d] = router.PortLinks{
			Out: link.NewData(testLinkLat + 1),
			In:  link.NewData(testLinkLat + 1),
		}
	}
	h.r = New(mesh, node, policy, 1, rand.New(rand.NewSource(3)), h.wires, h.ni, h.ni, nil, h.nack)
	return h
}

func (h *dropHarness) tick() {
	h.r.Tick(h.now)
	h.now++
}

func (h *dropHarness) recvAll() int {
	n := 0
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		if h.wires.Ports[d].Out == nil {
			continue
		}
		if _, ok := h.wires.Ports[d].Out.Recv(h.now); ok {
			n++
		}
	}
	return n
}

// TestDropOnProductiveContention: two flits contending for the same
// productive port — one advances, the other is dropped and NACKed (never
// deflected).
func TestDropOnProductiveContention(t *testing.T) {
	h := newDropHarness(t, 4)
	// Both flits at center node 4 want East (dst 5).
	h.wires.Ports[topology.North].In.Send(h.now, mk(1, 1, 5))
	h.wires.Ports[topology.South].In.Send(h.now, mk(2, 7, 5))
	sent := 0
	for c := 0; c < 10; c++ {
		h.tick()
		sent += h.recvAll()
	}
	if sent != 1 {
		t.Fatalf("forwarded %d flits, want exactly 1 (no deflection)", sent)
	}
	if len(h.nack.nacks) != 1 {
		t.Fatalf("nacks = %d, want 1", len(h.nack.nacks))
	}
	if h.r.DroppedFlits() != 1 {
		t.Fatalf("dropped = %d", h.r.DroppedFlits())
	}
}

// TestDropEjectionContention: a destination flit that loses the ejection
// port is dropped (not misrouted) and NACKed.
func TestDropEjectionContention(t *testing.T) {
	h := newDropHarness(t, 4)
	h.wires.Ports[topology.East].In.Send(h.now, mk(1, 0, 4))
	h.wires.Ports[topology.West].In.Send(h.now, mk(2, 0, 4))
	for c := 0; c < 10; c++ {
		h.tick()
		h.recvAll()
	}
	if len(h.ni.delivered) != 1 {
		t.Fatalf("delivered = %d, want 1", len(h.ni.delivered))
	}
	if len(h.nack.nacks) != 1 {
		t.Fatalf("nacks = %d, want 1", len(h.nack.nacks))
	}
}

// TestDropNeverMisroutes: under saturation, every forwarded flit moved
// strictly closer to its destination (productive-only routing).
func TestDropNeverMisroutes(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	h := newDropHarness(t, 4)
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 300; c++ {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			if h.wires.Ports[d].In.CanSend(h.now) {
				dst := topology.NodeID(rng.Intn(9))
				if dst == 4 {
					dst = 0
				}
				h.wires.Ports[d].In.Send(h.now, mk(uint64(c*10+int(d)), 4, dst))
			}
		}
		h.tick()
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			if h.wires.Ports[d].Out == nil {
				continue
			}
			if f, ok := h.wires.Ports[d].Out.Recv(h.now); ok {
				nb, _ := mesh.Neighbor(4, d)
				if mesh.Distance(nb, f.Dst) >= mesh.Distance(4, f.Dst) {
					t.Fatalf("drop router misrouted flit %v via %s", f, d)
				}
			}
		}
	}
	if h.r.DroppedFlits() == 0 {
		t.Error("saturation produced no drops; test not exercising contention")
	}
}

// TestDropHonorsOldestPolicy: the drop kind arbitrates through the
// configured policy. Under PolicyOldest, of two flits contending for the
// same productive port the older one advances and the younger one is
// NACKed — whichever input port each arrives on.
func TestDropHonorsOldestPolicy(t *testing.T) {
	for _, olderFrom := range []topology.Dir{topology.North, topology.South} {
		t.Run(olderFrom.String(), func(t *testing.T) {
			h := newDropHarnessPolicy(t, 4, router.PolicyOldest)
			older, younger := mk(1, 1, 5), mk(2, 7, 5)
			older.InjectedAt, younger.InjectedAt = 3, 8
			youngerFrom := topology.North
			if olderFrom == topology.North {
				youngerFrom = topology.South
			}
			// Both flits at center node 4 want East (dst 5).
			h.wires.Ports[olderFrom].In.Send(h.now, older)
			h.wires.Ports[youngerFrom].In.Send(h.now, younger)
			var forwarded []*flit.Flit
			for c := 0; c < 10; c++ {
				h.tick()
				if f, ok := h.wires.Ports[topology.East].Out.Recv(h.now); ok {
					forwarded = append(forwarded, f)
				}
			}
			if len(forwarded) != 1 || forwarded[0].PacketID != older.PacketID {
				t.Fatalf("forwarded %v, want only the older flit (packet %d)", forwarded, older.PacketID)
			}
			if len(h.nack.nacks) != 1 || h.nack.nacks[0].PacketID != younger.PacketID {
				t.Fatalf("nacked %v, want only the younger flit (packet %d)", h.nack.nacks, younger.PacketID)
			}
		})
	}
}
