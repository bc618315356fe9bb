package vcrouter

import (
	"math/rand"
	"testing"

	"afcnet/internal/config"
	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/router/routertest"
	"afcnet/internal/topology"
)

// twin is one router of a lockstep pair: the router at the center of a
// 3x3 mesh whose far link ends and NI the test holds.
type twin struct {
	r     *Router
	ni    *routertest.NI
	wires router.Wires
}

func newTwin(cfg config.Baseline) *twin {
	site, ni := routertest.Wire(topology.NewMesh(3, 3), 4, testLinkLat, 1)
	return &twin{r: NewSlab(1, cfg).New(site), ni: ni, wires: site.Wires}
}

// TestQuiescentTickEqualsFastForward checks the Quiescer contract the
// active-set kernel and the sharded tick rely on, directly on one
// router built the way the network builds it: whenever Quiescent(now)
// holds, Tick(now) leaves exactly the state FastForward(1) does.
func TestQuiescentTickEqualsFastForward(t *testing.T) {
	skips, ticks, credits := runTwins(t, 5, 6000)
	if skips == 0 || ticks == 0 || credits == 0 {
		t.Fatalf("stimulus exercised %d skips, %d ticks and %d returned credits; want all", skips, ticks, credits)
	}
}

// FuzzQuiescentContract runs the lockstep twins on fuzzer-chosen
// stimulus seeds.
func FuzzQuiescentContract(f *testing.F) {
	f.Add(int64(5))
	f.Fuzz(func(t *testing.T, seed int64) {
		runTwins(t, seed, 1500)
	})
}

// runTwins drives two identical routers with the same random stimulus,
// in bursts separated by idle stretches: single-flit packets arriving on
// every port within the upstream's per-VC credits, downstream credits
// returned after random delays (often into an idle router), NI packets
// and port-block toggles. One twin always ticks; the other
// fast-forwards whenever it is quiescent. Their full state must agree
// every cycle. It returns the skipped twin's skip and tick counts and
// the number of credits returned to the router.
func runTwins(t testing.TB, seed int64, cycles uint64) (skips, ticks, credits int) {
	cfg := config.Default().Baseline
	ticked, skipped := newTwin(cfg), newTwin(cfg)
	twins := [2]*twin{ticked, skipped}
	rng := rand.New(rand.NewSource(seed))
	// up[d][v] is the upstream neighbor's credit count for our input VC
	// v on port d; down[d] holds the credits a downstream neighbor owes
	// for the flits we sent it.
	var up [topology.NumDirs][]int
	var down [topology.NumDirs]routertest.Credits
	for d := range up {
		up[d] = make([]int, ticked.r.numVCs)
		for v := range up[d] {
			up[d][v] = cfg.BufDepth
		}
	}
	var pkt uint64
	for now := uint64(0); now < cycles; now++ {
		busy := now%300 < 120
		for _, tw := range twins {
			tw.ni.Delivered = tw.ni.Delivered[:0]
		}
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			for i, tw := range twins {
				pl := tw.wires.Ports[d]
				c, gotCredit := pl.CreditOut.Recv(now)
				f, gotFlit := pl.Out.Recv(now)
				if i > 0 {
					continue // the diff keeps the twins' pipes equal
				}
				if gotCredit {
					up[d][c.VC]++
				}
				if gotFlit {
					down[d].Owe(now+uint64(rng.Intn(60)), link.Credit{VC: f.VC, VN: f.VN})
				}
			}
			if c, ok := down[d].Next(now); ok {
				credits++
				for _, tw := range twins {
					tw.wires.Ports[d].CreditIn.Send(now, c)
				}
			}
			if !busy || rng.Float64() >= 0.3 {
				continue
			}
			vn := flit.VN(rng.Intn(flit.NumVNs))
			vcs := ticked.r.vnVCs[vn]
			v := vcs[rng.Intn(len(vcs))]
			if up[d][v] == 0 {
				continue
			}
			up[d][v]--
			pkt++
			dst := topology.NodeID(rng.Intn(9))
			for _, tw := range twins {
				f := &flit.Flit{PacketID: pkt, Len: 1, Dst: dst, VN: vn, VC: v}
				tw.wires.Ports[d].In.Send(now, f)
			}
		}
		if busy && rng.Float64() < 0.2 {
			pkt++
			dst := topology.NodeID(rng.Intn(8))
			if dst >= 4 {
				dst++ // never the router's own node
			}
			p := flit.Packet{ID: pkt, Src: 4, Dst: dst, VN: flit.VN(rng.Intn(flit.NumVNs)), Len: 1 + 4*rng.Intn(2)}
			for _, tw := range twins {
				tw.ni.Enqueue(p.Flits()...)
			}
		}
		if rng.Float64() < 0.01 {
			// Mostly unblocks: a port held blocked parks its packets,
			// and a router holding flits is never quiescent.
			d := topology.Dir(rng.Intn(topology.NumDirs))
			blocked := rng.Intn(8) == 0
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
		if field := routertest.Diff(ticked.r, skipped.r); field != "" {
			t.Fatalf("cycle %d: twins diverge in %s", now, field)
		}
	}
	return skips, ticks, credits
}
