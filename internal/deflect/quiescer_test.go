package deflect

import (
	"fmt"
	"math/rand"
	"testing"

	"afcnet/internal/flit"
	"afcnet/internal/router"
	"afcnet/internal/router/routertest"
	"afcnet/internal/topology"
)

// twin is one router of a lockstep pair: the router at the center of a
// 3x3 mesh whose far link ends, NI and NACK port the test holds.
type twin struct {
	r     *Router
	ni    *routertest.NI
	nack  *recordingNacker
	wires router.Wires
}

func newTwin(drop bool) *twin {
	tw := &twin{nack: &recordingNacker{}}
	var nack Nacker
	if drop {
		nack = tw.nack
	}
	tw.r, tw.wires, tw.ni = newRouter(4, router.PolicyRandom, 21, nack)
	return tw
}

// state is the router with the per-cycle scratch a tick overwrites
// before reading (the dispatch list and the deflector's buffers)
// cleared, so two twins compare on the state that carries across
// cycles. The deflector's random stream is cleared too; a divergence
// there shows up in later outputs.
func (tw *twin) state() *Router {
	c := *tw.r
	c.flits, c.defl = nil, router.Deflector{}
	return &c
}

// TestQuiescentTickEqualsFastForward checks the Quiescer contract the
// active-set kernel and the sharded tick rely on, directly on one
// router: whenever Quiescent(now) holds, Tick(now) leaves exactly the
// state FastForward(1) does. Covers the deflect kind and the drop
// fallback (see runTwins).
func TestQuiescentTickEqualsFastForward(t *testing.T) {
	for _, drop := range []bool{false, true} {
		t.Run(fmt.Sprintf("drop=%v", drop), func(t *testing.T) {
			ticked, skips, ticks := runTwins(t, drop, 5, 6000)
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

// FuzzQuiescentContract runs the lockstep twins on fuzzer-chosen
// stimulus seeds.
func FuzzQuiescentContract(f *testing.F) {
	f.Add(int64(5), false)
	f.Add(int64(5), true)
	f.Fuzz(func(t *testing.T, seed int64, drop bool) {
		runTwins(t, drop, seed, 1500)
	})
}

// runTwins drives two identically seeded twins with the same random
// stimulus — inbound flits, NI injections, port-block toggles — in
// bursts separated by idle stretches. One always ticks, the other
// fast-forwards whenever it is quiescent, and their full observable
// state must agree every cycle. It returns the always-ticked twin and
// the skipped twin's skip and tick counts.
func runTwins(t testing.TB, drop bool, seed int64, cycles uint64) (ticked *twin, skips, ticks int) {
	ticked, skipped := newTwin(drop), newTwin(drop)
	twins := [2]*twin{ticked, skipped}
	rng := rand.New(rand.NewSource(seed))
	var pkt uint64
	for now := uint64(0); now < cycles; now++ {
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
				tw.ni.Enqueue(f)
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
		if field := routertest.Diff(ticked.state(), skipped.state()); field != "" {
			t.Fatalf("cycle %d: twins diverge in %s", now, field)
		}
		// Drain this cycle's output arrivals, deliveries and NACKs on
		// both sides.
		for _, tw := range twins {
			for d := topology.Dir(0); d < topology.NumDirs; d++ {
				tw.wires.Ports[d].Out.Recv(now)
			}
			tw.ni.Delivered = tw.ni.Delivered[:0]
			tw.nack.nacks = tw.nack.nacks[:0]
		}
	}
	return ticked, skips, ticks
}
