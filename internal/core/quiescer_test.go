package core

import (
	"fmt"
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

func newTwin(opts Options) *twin {
	cfg := config.Default()
	site, ni := routertest.Wire(cfg.Mesh, 4, cfg.LinkLatency, cfg.EjectWidth)
	r := NewSlab(1, cfg.AFC, cfg.LinkLatency).New(site, rand.New(rand.NewSource(21)), opts)
	return &twin{r: r, ni: ni, wires: site.Wires}
}

// state is the router with the per-cycle scratch a tick overwrites
// before reading (dispatch lists, switch candidates, the dispatch count
// and the deflector's buffers) cleared, so two twins compare on the
// state that carries across cycles. The deflector's random stream is
// cleared too; a divergence there shows up in later outputs.
func (tw *twin) state() *Router {
	c := *tw.r
	c.dflits, c.dports, c.cands, c.dispatched = nil, nil, [topology.NumPorts]cand{}, 0
	c.defl = router.Deflector{}
	return &c
}

// TestQuiescentTickEqualsFastForward checks the Quiescer contract the
// active-set kernel and the sharded tick rely on, directly on one AFC
// router built the way the network builds it: whenever Quiescent(now)
// holds, Tick(now) leaves exactly the state FastForward(1) does. Covers
// the adaptive router and the always-backpressured one.
func TestQuiescentTickEqualsFastForward(t *testing.T) {
	for _, always := range []bool{false, true} {
		t.Run(fmt.Sprintf("alwaysBuffered=%v", always), func(t *testing.T) {
			c := runTwins(t, always, 5, 6000)
			if c.skips == 0 || c.ticks == 0 || c.credits == 0 {
				t.Fatalf("stimulus exercised %d skips, %d ticks, %d returned credits; want all", c.skips, c.ticks, c.credits)
			}
			if !always && (c.ctrl == 0 || c.switches == 0) {
				t.Fatalf("stimulus sent %d notifications and forced %d forward switches; want both", c.ctrl, c.switches)
			}
		})
	}
}

// FuzzQuiescentContract runs the lockstep twins on fuzzer-chosen
// stimulus seeds.
func FuzzQuiescentContract(f *testing.F) {
	f.Add(int64(5), false)
	f.Add(int64(5), true)
	f.Fuzz(func(t *testing.T, seed int64, always bool) {
		runTwins(t, always, seed, 1500)
	})
}

// coverage counts what a runTwins stimulus exercised.
type coverage struct {
	skips, ticks, credits, ctrl int
	switches                    uint64
}

// runTwins drives two identical routers with the same random stimulus,
// in bursts separated by idle stretches, and fails t as soon as their
// state differs. One twin always ticks; the other fast-forwards
// whenever it is quiescent. The far end of every port plays an AFC
// neighbor:
//
//   - As upstream it sends flits within the credits it tracks, following
//     the router's own start/stop notifications and credit returns, as
//     the core test harness does.
//   - As downstream it switches modes on its own (adaptive twins only):
//     a start notification sent at T makes it buffer — and owe a credit
//     for — every flit arriving from T+2L+1 on, which is exactly what the
//     router charges against its credits; it stops only once it owes
//     nothing. Owed credits return after random delays, often into an
//     idle router.
//
// An always-backpressured router's neighbors track credits from the
// start and never notify.
func runTwins(t testing.TB, always bool, seed int64, cycles uint64) coverage {
	cfg := config.Default()
	L := uint64(cfg.LinkLatency)
	ticked, skipped := newTwin(Options{AlwaysBuffered: always}), newTwin(Options{AlwaysBuffered: always})
	twins := [2]*twin{ticked, skipped}
	rng := rand.New(rand.NewSource(seed))

	// up[d] is the upstream neighbor's view of our buffers on port d;
	// bufferedFrom[d] is the first arrival cycle the downstream neighbor
	// on d buffers (0 = in backpressureless mode), owed its credits.
	var up [topology.NumDirs]upstream
	var bufferedFrom [topology.NumDirs]uint64
	var owed [topology.NumDirs]routertest.Credits
	if always {
		for d := range up {
			up[d] = upstream{tracking: true, credits: cfg.AFC.VCsPerVN}
			bufferedFrom[d] = 1
		}
	}
	var c coverage
	var pkt uint64
	for now := uint64(0); now < cycles; now++ {
		busy := now%300 < 120
		for _, tw := range twins {
			tw.ni.Delivered = tw.ni.Delivered[:0]
		}
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			for i, tw := range twins {
				pl := tw.wires.Ports[d]
				ctl, gotCtrl := pl.CtrlOut.Recv(now)
				cr, gotCredit := pl.CreditOut.Recv(now)
				f, gotFlit := pl.Out.Recv(now)
				if i > 0 {
					continue // the diff keeps the twins' pipes equal
				}
				if gotCtrl && ctl == link.CtrlStartCredits {
					up[d] = upstream{tracking: true, credits: cfg.AFC.VCsPerVN}
				} else if gotCtrl {
					up[d] = upstream{}
				}
				if gotCredit && up[d].tracking {
					up[d].credits[cr.VN]++
				}
				if gotFlit && bufferedFrom[d] != 0 && now >= bufferedFrom[d] {
					owed[d].Owe(now+uint64(rng.Intn(60)), link.Credit{VN: f.VN})
				}
			}
			if cr, ok := owed[d].Next(now); ok {
				c.credits++
				for _, tw := range twins {
					tw.wires.Ports[d].CreditIn.Send(now, cr)
				}
			}
			if !always && rng.Float64() < 0.004 {
				// The downstream neighbor switches modes.
				ctl := link.CtrlStartCredits
				if bufferedFrom[d] == 0 {
					bufferedFrom[d] = now + 2*L + 1
				} else if !owed[d].Pending() {
					ctl, bufferedFrom[d] = link.CtrlStopCredits, 0
				} else {
					continue
				}
				c.ctrl++
				for _, tw := range twins {
					tw.wires.Ports[d].CtrlIn.Send(now, ctl)
				}
			}
			if !busy || rng.Float64() >= 0.4 {
				continue
			}
			vn := flit.VN(rng.Intn(flit.NumVNs))
			if up[d].tracking {
				if up[d].credits[vn] == 0 {
					continue
				}
				up[d].credits[vn]--
			}
			pkt++
			dst := topology.NodeID(rng.Intn(9))
			for _, tw := range twins {
				tw.wires.Ports[d].In.Send(now, mk(pkt, 0, dst, vn))
			}
		}
		if busy && rng.Float64() < 0.3 {
			pkt++
			dst := topology.NodeID(rng.Intn(8))
			if dst >= 4 {
				dst++ // never the router's own node
			}
			vn := flit.VN(rng.Intn(flit.NumVNs))
			for _, tw := range twins {
				tw.ni.Enqueue(mk(pkt, 4, dst, vn))
			}
		}

		ticked.r.Tick(now)
		if skipped.r.Quiescent(now) {
			skipped.r.FastForward(1)
			c.skips++
		} else {
			skipped.r.Tick(now)
			c.ticks++
		}
		if field := routertest.Diff(ticked.state(), skipped.state()); field != "" {
			t.Fatalf("cycle %d: twins diverge in %s", now, field)
		}
	}
	c.switches = ticked.r.ForwardSwitches()
	return c
}
