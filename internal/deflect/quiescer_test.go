package deflect

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

// countingNI is a fakeNI that also reports its queue total, so the
// router takes its O(1) QueuedCounter paths instead of per-VN peeks.
type countingNI struct{ *fakeNI }

func (c countingNI) QueuedFlits() int {
	n := 0
	for _, q := range c.queues {
		n += len(q)
	}
	return n
}

// twin is one router of a lockstep pair: a router at the center of a
// 3x3 mesh whose far link ends, NI and NACK port the test holds.
type twin struct {
	r     *Router
	ni    *fakeNI
	nack  *recordingNacker
	wires router.Wires
}

func newTwin(drop, counted bool) *twin {
	const node = 4
	mesh := topology.NewMesh(3, 3)
	tw := &twin{ni: &fakeNI{}, nack: &recordingNacker{}}
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		tw.wires.Ports[d] = router.PortLinks{
			Out: link.NewData(testLinkLat + 1),
			In:  link.NewData(testLinkLat + 1),
		}
	}
	var src router.LocalSource = tw.ni
	if counted {
		src = countingNI{tw.ni}
	}
	var nack Nacker
	if drop {
		nack = tw.nack
	}
	tw.r = New(mesh, node, router.PolicyRandom, 1, rand.New(rand.NewSource(21)),
		tw.wires, src, tw.ni, nil, nack)
	return tw
}

// flitKey is the part of a flit the lockstep comparison checks: the
// twins hold distinct but identically evolving flit objects.
type flitKey struct {
	pkt                        uint64
	injectedAt                 uint64
	hops, deflections, retrans int
}

func keyOf(f *flit.Flit) flitKey {
	return flitKey{f.PacketID, f.InjectedAt, f.Hops, f.Deflections, f.Retransmits}
}

func keysOf(fs []*flit.Flit) []flitKey {
	ks := make([]flitKey, len(fs))
	for i, f := range fs {
		ks[i] = keyOf(f)
	}
	return ks
}

// diff reports the first state difference between the twins, or "".
func diff(a, b *twin) string {
	if len(a.r.latches) != len(b.r.latches) {
		return fmt.Sprintf("latch count %d vs %d", len(a.r.latches), len(b.r.latches))
	}
	for i := range a.r.latches {
		la, lb := a.r.latches[i], b.r.latches[i]
		if la.arrivedAt != lb.arrivedAt || keyOf(la.f) != keyOf(lb.f) {
			return fmt.Sprintf("latch %d: %+v@%d vs %+v@%d", i, keyOf(la.f), la.arrivedAt, keyOf(lb.f), lb.arrivedAt)
		}
	}
	// The injection stage: per-VN registers, the VN round-robin cursor
	// and, through the source it holds, the NI queues.
	if !reflect.DeepEqual(a.r.inj, b.r.inj) {
		return "injection stage (registers, round-robin cursor or NI queues)"
	}
	if a.r.deflections != b.r.deflections || a.r.dropped != b.r.dropped ||
		a.r.parked != b.r.parked || a.r.blocked != b.r.blocked {
		return "stats or fault state"
	}
	if !reflect.DeepEqual(keysOf(a.ni.delivered), keysOf(b.ni.delivered)) {
		return "delivered flits"
	}
	if !reflect.DeepEqual(keysOf(a.nack.nacks), keysOf(b.nack.nacks)) {
		return "NACKed flits"
	}
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		if !reflect.DeepEqual(a.wires.Ports[d].Out, b.wires.Ports[d].Out) {
			return fmt.Sprintf("output pipe %s", d)
		}
	}
	return ""
}

// TestQuiescentTickEqualsFastForward checks the Quiescer contract the
// active-set kernel and the sharded tick rely on, directly on one
// router: whenever Quiescent(now) holds, Tick(now) leaves exactly the
// state FastForward(1) does. Two identically seeded twins see the same
// random stimulus — inbound flits, NI injections, port-block toggles —
// in bursts separated by idle stretches; one always ticks, the other
// fast-forwards whenever it is quiescent, and their full observable
// state must agree every cycle. Covers the deflect kind and the drop
// fallback, with and without the O(1) queue counter.
func TestQuiescentTickEqualsFastForward(t *testing.T) {
	for _, drop := range []bool{false, true} {
		for _, counted := range []bool{false, true} {
			name := fmt.Sprintf("drop=%v/counted=%v", drop, counted)
			t.Run(name, func(t *testing.T) {
				ticked, skipped := newTwin(drop, counted), newTwin(drop, counted)
				twins := [2]*twin{ticked, skipped}
				rng := rand.New(rand.NewSource(5))
				var pkt uint64
				skips, ticks := 0, 0
				for now := uint64(0); now < 6000; now++ {
					busy := now%300 < 120
					for d := topology.Dir(0); d < topology.NumDirs; d++ {
						if !busy || rng.Float64() >= 0.35 || !ticked.wires.Ports[d].In.CanSend(now) {
							continue
						}
						pkt++
						dst := topology.NodeID(rng.Intn(9))
						for _, tw := range twins {
							tw.wires.Ports[d].In.Send(now, mk(pkt, 0, dst))
						}
					}
					if busy && rng.Float64() < 0.3 {
						pkt++
						vn := flit.VN(rng.Intn(flit.NumVNs))
						dst := topology.NodeID(rng.Intn(8))
						if dst >= 4 {
							dst++ // never the router's own node
						}
						for _, tw := range twins {
							f := mk(pkt, 4, dst)
							f.VN = vn
							tw.ni.queues[vn] = append(tw.ni.queues[vn], f)
						}
					}
					if rng.Float64() < 0.02 {
						d := topology.Dir(rng.Intn(topology.NumDirs))
						blocked := rng.Intn(2) == 0
						for _, tw := range twins {
							tw.r.SetPortBlocked(d, blocked)
						}
					}

					ticked.r.Tick(now)
					if skipped.r.Quiescent(now) {
						skipped.r.FastForward(1)
						skips++
					} else {
						skipped.r.Tick(now)
						ticks++
					}
					if msg := diff(ticked, skipped); msg != "" {
						t.Fatalf("cycle %d: twins diverge: %s", now, msg)
					}
					// Drain this cycle's output arrivals, deliveries and
					// NACKs on both sides.
					for _, tw := range twins {
						for d := topology.Dir(0); d < topology.NumDirs; d++ {
							tw.wires.Ports[d].Out.Recv(now)
						}
						tw.ni.delivered = tw.ni.delivered[:0]
						tw.nack.nacks = tw.nack.nacks[:0]
					}
				}
				if skips == 0 || ticks == 0 {
					t.Fatalf("stimulus exercised %d skips and %d ticks; want both", skips, ticks)
				}
				if drop && ticked.r.DroppedFlits() == 0 {
					t.Error("drop twin never dropped; stimulus too light")
				}
				if !drop && ticked.r.Deflections() == 0 {
					t.Error("deflect twin never deflected; stimulus too light")
				}
			})
		}
	}
}
