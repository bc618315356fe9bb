package network_test

import (
	"fmt"
	"testing"

	"afcnet/internal/config"
	"afcnet/internal/core"
	"afcnet/internal/flit"
	"afcnet/internal/network"
	"afcnet/internal/router"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

var allKindsX = []network.Kind{
	network.Backpressured, network.BackpressuredIdealBypass,
	network.Bless, network.BlessDrop, network.AFC, network.AFCAlwaysBuffered,
}

func newTestNetX(t *testing.T, kind network.Kind, seed int64) *network.Network {
	t.Helper()
	return network.New(network.Config{System: config.Default(), Kind: kind, Seed: seed, MeterEnergy: true})
}

// TestAFCAdaptsToLoad drives an AFC network through a low-high-low load
// profile and checks the whole network follows: backpressureless when
// idle, backpressured under saturation, and back — with conservation
// throughout (router panics are the invariant oracle).
func TestAFCAdaptsToLoad(t *testing.T) {
	n := newTestNetX(t, network.AFC, 31)
	modes := func() (bless, buffered int) {
		for i := 0; i < n.Nodes(); i++ {
			switch n.Router(topology.NodeID(i)).(*core.Router).Mode() {
			case core.ModeBless:
				bless++
			case core.ModeBuffered:
				buffered++
			}
		}
		return
	}

	// Phase 1: light traffic — everything stays backpressureless.
	gen := traffic.NewGenerator(n, traffic.Config{Rate: 0.08}, n.RandStream)
	n.AddTicker(gen)
	n.Run(5_000)
	if bless, _ := modes(); bless != n.Nodes() {
		t.Fatalf("phase 1: %d/%d routers backpressureless", bless, n.Nodes())
	}

	// Phase 2: heavy traffic — the network must switch to backpressured.
	gen.Stop()
	heavy := traffic.NewGenerator(n, traffic.Config{Rate: 0.7}, n.RandStream)
	n.AddTicker(heavy)
	n.Run(12_000)
	if _, buffered := modes(); buffered < n.Nodes()/2 {
		t.Fatalf("phase 2: only %d routers backpressured under heavy load", buffered)
	}

	// Phase 3: idle — reverse switches bring everything back, and the
	// network drains without losing a flit.
	heavy.Stop()
	if !n.RunUntil(n.Drained, 300_000) {
		t.Fatalf("network failed to drain: delivered %d/%d",
			n.DeliveredPackets(), n.CreatedPackets())
	}
	n.Run(3_000) // EWMA decay
	if bless, _ := modes(); bless != n.Nodes() {
		t.Fatalf("phase 3: %d/%d routers backpressureless after idling", bless, n.Nodes())
	}
	if n.DeliveredPackets() != n.CreatedPackets() {
		t.Fatalf("lost packets: %d/%d", n.DeliveredPackets(), n.CreatedPackets())
	}
	ms := n.ModeStats()
	if ms.ForwardSwitches == 0 || ms.ReverseSwitches == 0 {
		t.Errorf("load profile did not exercise switches: %+v", ms)
	}
}

// TestAFCMixedModeSteadyState holds a sustained hotspot so part of the
// network is backpressured while the rest stays backpressureless, and
// verifies traffic flows correctly across the mode boundary in both
// directions (the Section III-D interaction cases).
func TestAFCMixedModeSteadyState(t *testing.T) {
	n := newTestNetX(t, network.AFC, 33)
	mesh := n.Mesh()
	gen := traffic.NewGenerator(n, traffic.Config{
		Pattern: traffic.Hotspot{Mesh: mesh, Hot: mesh.Node(1, 1), Frac: 0.5},
		Rate:    0.28,
	}, n.RandStream)
	n.AddTicker(gen)
	n.Run(20_000)

	bless, buffered := 0, 0
	for i := 0; i < n.Nodes(); i++ {
		switch n.Router(topology.NodeID(i)).(*core.Router).Mode() {
		case core.ModeBless:
			bless++
		case core.ModeBuffered:
			buffered++
		}
	}
	if buffered == 0 {
		t.Skip("hotspot did not create a backpressured region at this seed")
	}
	// Mixed steady state reached at least transiently; what matters is
	// correctness: drain with zero loss.
	gen.Stop()
	if !n.RunUntil(n.Drained, 300_000) {
		t.Fatalf("mixed-mode network failed to drain: %d/%d delivered",
			n.DeliveredPackets(), n.CreatedPackets())
	}
	if n.DeliveredPackets() != n.CreatedPackets() {
		t.Fatalf("lost packets across mode boundary: %d/%d",
			n.DeliveredPackets(), n.CreatedPackets())
	}
}

// TestAFCDataPacketsAcrossModes sends multi-flit data packets while the
// network flaps between modes; out-of-order flit arrival (deflection),
// lazy VC reassignment (buffered) and reassembly must all compose.
func TestAFCDataPacketsAcrossModes(t *testing.T) {
	n := newTestNetX(t, network.AFC, 35)
	gen := traffic.NewGenerator(n, traffic.Config{
		Rate:         0.5,
		DataFraction: 0.8, // mostly 17-flit packets
	}, n.RandStream)
	n.AddTicker(gen)
	n.Run(8_000)
	gen.Stop()
	if !n.RunUntil(n.Drained, 300_000) {
		t.Fatalf("failed to drain: %d/%d", n.DeliveredPackets(), n.CreatedPackets())
	}
	if n.DeliveredPackets() != n.CreatedPackets() {
		t.Fatalf("data packets lost: %d/%d", n.DeliveredPackets(), n.CreatedPackets())
	}
	if n.ModeStats().EscapeEvents != 0 {
		t.Logf("note: %d escape events (allowed, but expected rare)", n.ModeStats().EscapeEvents)
	}
}

// TestEveryKindSurvivesSaturation pushes offered load well past
// saturation for a while and checks each network recovers and conserves
// flits (backpressure/deflection/drop all have different failure modes;
// none may lose traffic).
func TestEveryKindSurvivesSaturation(t *testing.T) {
	for _, kind := range allKindsX {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			n := newTestNetX(t, kind, 37)
			gen := traffic.NewGenerator(n, traffic.Config{Rate: 1.2}, n.RandStream)
			n.AddTicker(gen)
			n.Run(6_000)
			gen.Stop()
			limit := uint64(400_000)
			if kind == network.BlessDrop {
				limit = 3_000_000 // exponential backoff stretches the tail
			}
			if !n.RunUntil(n.Drained, limit) {
				t.Fatalf("failed to drain after saturation: %d/%d delivered",
					n.DeliveredPackets(), n.CreatedPackets())
			}
			if n.DeliveredPackets() != n.CreatedPackets() {
				t.Fatalf("lost packets: %d/%d", n.DeliveredPackets(), n.CreatedPackets())
			}
		})
	}
}

// TestDeterminism: identical seeds produce identical runs; different
// seeds differ.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) (uint64, float64) {
		n := network.New(network.Config{System: config.Default(), Kind: network.AFC, Seed: seed, MeterEnergy: true})
		gen := traffic.NewGenerator(n, traffic.Config{Rate: 0.4}, n.RandStream)
		n.AddTicker(gen)
		n.Run(10_000)
		return n.DeliveredPackets(), n.TotalEnergy().Total()
	}
	p1, e1 := run(42)
	p2, e2 := run(42)
	if p1 != p2 || e1 != e2 {
		t.Fatalf("same seed diverged: (%d,%g) vs (%d,%g)", p1, e1, p2, e2)
	}
	p3, _ := run(43)
	if p3 == p1 {
		t.Log("different seeds produced identical delivery counts (possible but unlikely)")
	}
}

// TestInjectionSustainsFullLocalPortBandwidth: with both control and
// data queues saturated, the local input port must stream one flit per
// cycle through the crossbar (the per-VN NI pulls keep its buffers
// primed; the crossbar port itself is one flit wide by design).
func TestInjectionSustainsFullLocalPortBandwidth(t *testing.T) {
	n := newTestNetX(t, network.Backpressured, 39)
	for i := 0; i < 300; i++ {
		n.NI(0).SendPacket(n.Now(), 1, flit.VNReq, 1, 0)
		n.NI(0).SendPacket(n.Now(), 3, flit.VNData, 1, 0)
	}
	n.Run(400)
	inj := n.NI(0).InjectedFlits()
	// Near-perfect utilization: one flit/cycle minus pipeline fill.
	if inj < 390 {
		t.Fatalf("injected only %d flits in 400 cycles; local port underutilized", inj)
	}
}

// TestProbabilisticLivelockFreedom (Section III-F): under randomized
// deflection arbitration with no priorities, delivery is probabilistic —
// but the probability of a flit wandering decays per hop, so even near
// saturation the worst observed misroute count must stay far below the
// run length, and every packet must arrive.
func TestProbabilisticLivelockFreedom(t *testing.T) {
	for _, kind := range []network.Kind{network.Bless, network.AFC} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			n := newTestNetX(t, kind, 41)
			gen := traffic.NewGenerator(n, traffic.Config{Rate: 0.5}, n.RandStream)
			n.AddTicker(gen)
			n.Run(20_000)
			gen.Stop()
			if !n.RunUntil(n.Drained, 400_000) {
				t.Fatalf("did not drain: %d/%d", n.DeliveredPackets(), n.CreatedPackets())
			}
			if n.DeliveredPackets() != n.CreatedPackets() {
				t.Fatalf("lost packets: %d/%d", n.DeliveredPackets(), n.CreatedPackets())
			}
			maxDefl := n.MaxFlitDeflections()
			if maxDefl > 2_000 {
				t.Errorf("a flit suffered %d misroutes — livelock tail far too heavy", maxDefl)
			}
			t.Logf("%s: worst-case flit misroutes = %d (total %d)",
				kind, maxDefl, n.TotalDeflections())
		})
	}
}

// TestOldestFirstBoundsAge: with the oldest-first ablation policy,
// deterministic livelock freedom holds; the worst misroute count should
// not exceed the randomized policy's by much, and nothing is lost.
func TestOldestFirstBoundsAge(t *testing.T) {
	n := network.New(network.Config{
		System: config.Default(), Kind: network.Bless, Seed: 43,
		MeterEnergy: false, Policy: router.PolicyOldest,
	})
	gen := traffic.NewGenerator(n, traffic.Config{Rate: 0.5}, n.RandStream)
	n.AddTicker(gen)
	n.Run(15_000)
	gen.Stop()
	if !n.RunUntil(n.Drained, 400_000) {
		t.Fatalf("did not drain: %d/%d", n.DeliveredPackets(), n.CreatedPackets())
	}
	if n.DeliveredPackets() != n.CreatedPackets() {
		t.Fatalf("lost packets: %d/%d", n.DeliveredPackets(), n.CreatedPackets())
	}
	t.Logf("oldest-first worst-case flit misroutes = %d", n.MaxFlitDeflections())
}

// TestLargerMeshes: the simulator is not hard-coded to 3x3 — delivery
// and conservation hold on rectangular and larger meshes for every kind.
func TestLargerMeshes(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {5, 3}, {8, 8}} {
		for _, kind := range []network.Kind{network.Backpressured, network.Bless, network.AFC} {
			dims, kind := dims, kind
			t.Run(fmt.Sprintf("%dx%d/%s", dims[0], dims[1], kind), func(t *testing.T) {
				t.Parallel()
				sys := config.DefaultWithMesh(topology.NewMesh(dims[0], dims[1]))
				n := network.New(network.Config{System: sys, Kind: kind, Seed: 51, MeterEnergy: true})
				gen := traffic.NewGenerator(n, traffic.Config{Rate: 0.15}, n.RandStream)
				n.AddTicker(gen)
				n.Run(6_000)
				gen.Stop()
				if !n.RunUntil(n.Drained, 300_000) {
					t.Fatalf("did not drain: %d/%d", n.DeliveredPackets(), n.CreatedPackets())
				}
				if n.DeliveredPackets() != n.CreatedPackets() {
					t.Fatalf("lost packets: %d/%d", n.DeliveredPackets(), n.CreatedPackets())
				}
			})
		}
	}
}

// TestAdversarialPatterns runs permutation and hotspot patterns at
// moderate load through every kind: deterministic DOR networks must not
// deadlock, deflection networks must not livelock, and everything must
// drain loss-free.
func TestAdversarialPatterns(t *testing.T) {
	patterns := []struct {
		name string
		mk   func(n *network.Network) traffic.Pattern
	}{
		{"transpose", func(n *network.Network) traffic.Pattern { return traffic.Transpose{Mesh: n.Mesh()} }},
		{"bitcomp", func(n *network.Network) traffic.Pattern { return traffic.BitComplement{Mesh: n.Mesh()} }},
		{"neighbor", func(n *network.Network) traffic.Pattern { return traffic.NearNeighbor{Mesh: n.Mesh()} }},
		{"hotspot", func(n *network.Network) traffic.Pattern {
			return traffic.Hotspot{Mesh: n.Mesh(), Hot: 4, Frac: 0.4}
		}},
	}
	for _, kind := range []network.Kind{network.Backpressured, network.Bless, network.AFC} {
		for _, pat := range patterns {
			kind, pat := kind, pat
			t.Run(kind.String()+"/"+pat.name, func(t *testing.T) {
				t.Parallel()
				n := newTestNetX(t, kind, 61)
				gen := traffic.NewGenerator(n, traffic.Config{
					Pattern: pat.mk(n),
					Rate:    0.35,
				}, n.RandStream)
				n.AddTicker(gen)
				n.Run(8_000)
				gen.Stop()
				if !n.RunUntil(n.Drained, 400_000) {
					t.Fatalf("did not drain: %d/%d", n.DeliveredPackets(), n.CreatedPackets())
				}
				if n.DeliveredPackets() != n.CreatedPackets() {
					t.Fatalf("lost packets: %d/%d", n.DeliveredPackets(), n.CreatedPackets())
				}
			})
		}
	}
}

// TestNearNeighborDoesNotFalseSwitch checks the Section III-B discussion:
// "easy" near-neighbor traffic can show decent flit throughput without
// contention. At moderate neighbor-only load the AFC network should stay
// mostly backpressureless (intensity below the thresholds) — and whatever
// it does, it must stay correct.
func TestNearNeighborDoesNotFalseSwitch(t *testing.T) {
	n := newTestNetX(t, network.AFC, 63)
	gen := traffic.NewGenerator(n, traffic.Config{
		Pattern:      traffic.NearNeighbor{Mesh: n.Mesh()},
		Rate:         0.30,
		DataFraction: 0.1, // mostly short control packets
	}, n.RandStream)
	n.AddTicker(gen)
	n.Run(15_000)
	ms := n.ModeStats()
	if f := ms.BufferedFraction(); f > 0.5 {
		t.Errorf("near-neighbor traffic pushed AFC %.0f%% backpressured", 100*f)
	}
	gen.Stop()
	if !n.RunUntil(n.Drained, 200_000) {
		t.Fatal("did not drain")
	}
}

// TestRealisticVCANetworkStillCorrect: the 3-stage baseline option works
// end-to-end (integration coverage for ablation A6).
func TestRealisticVCANetworkStillCorrect(t *testing.T) {
	sys := config.Default()
	sys.Baseline.RealisticVCA = true
	n := network.New(network.Config{System: sys, Kind: network.Backpressured, Seed: 67, MeterEnergy: true})
	gen := traffic.NewGenerator(n, traffic.Config{Rate: 0.4}, n.RandStream)
	n.AddTicker(gen)
	n.Run(8_000)
	gen.Stop()
	if !n.RunUntil(n.Drained, 300_000) {
		t.Fatalf("did not drain: %d/%d", n.DeliveredPackets(), n.CreatedPackets())
	}
	if n.DeliveredPackets() != n.CreatedPackets() {
		t.Fatalf("lost packets: %d/%d", n.DeliveredPackets(), n.CreatedPackets())
	}
}

// TestModeFormationTiming: after a heavy load step, the fraction of AFC
// routers in backpressured mode, sampled every 25 cycles, must cross 1/2
// within a bounded time, and the mean smoothed intensity must rise past
// the center router's low threshold on the way.
func TestModeFormationTiming(t *testing.T) {
	n := network.New(network.Config{Kind: network.AFC, Seed: 23})
	n.AddTicker(traffic.NewGenerator(n, traffic.Config{Rate: 0.7}, n.RandStream))
	crossedAt, crossed, peak := uint64(0), false, 0.0
	for n.Now() < 10_000 {
		buffered, intensity := 0, 0.0
		for i := 0; i < n.Nodes(); i++ {
			r := n.Router(topology.NodeID(i)).(*core.Router)
			if r.Mode() == core.ModeBuffered {
				buffered++
			}
			intensity += r.Intensity()
		}
		if !crossed && 2*buffered >= n.Nodes() {
			crossedAt, crossed = n.Now(), true
		}
		peak = max(peak, intensity/float64(n.Nodes()))
		n.Run(25)
	}
	if !crossed {
		t.Fatal("backpressured fraction never crossed 0.5")
	}
	if crossedAt > 6_000 {
		t.Errorf("backpressured region took %d cycles to form", crossedAt)
	}
	if peak < 1.7 {
		t.Errorf("intensity peak %.2f below the center low threshold", peak)
	}
}

// TestModeDutyCyclesCoverWallClock checks that AFC mode accounting is a
// partition of time: every router charges exactly one mode per cycle, so
// per-router mode cycles sum to the wall clock and the network aggregate
// sums to cycles × routers. Load is heavy enough to force mode switches,
// so the sum covers bless, switching and backpressured residency.
func TestModeDutyCyclesCoverWallClock(t *testing.T) {
	const cycles = 8_000
	n := network.New(network.Config{Kind: network.AFC, Seed: 23})
	gen := traffic.NewGenerator(n, traffic.Config{Rate: 0.6}, n.RandStream)
	n.AddTicker(gen)
	n.Run(cycles)

	for node := 0; node < n.Nodes(); node++ {
		r, ok := n.Router(topology.NodeID(node)).(*core.Router)
		if !ok {
			t.Fatalf("node %d: AFC network has non-AFC router %T", node, n.Router(topology.NodeID(node)))
		}
		mc := r.ModeCycles()
		if sum := mc[core.ModeBless] + mc[core.ModeSwitching] + mc[core.ModeBuffered]; sum != cycles {
			t.Errorf("node %d: mode cycles %v sum to %d, want %d", node, mc, sum, cycles)
		}
	}
	ms := n.ModeStats()
	total := ms.BlessCycles + ms.SwitchingCycles + ms.BufferedCycles
	if want := uint64(cycles) * uint64(n.Nodes()); total != want {
		t.Errorf("aggregate mode cycles %d, want %d", total, want)
	}
	if ms.ForwardSwitches == 0 || ms.BufferedCycles == 0 {
		t.Errorf("load never forced a forward switch (forward=%d buffered=%d); duty-cycle sum untested under switching",
			ms.ForwardSwitches, ms.BufferedCycles)
	}
}

// TestWatchdogQuietOnRealNetworks: every router kind makes continuous
// progress under load — delivered packets advance in every 3000-cycle
// window that ends with the network not drained.
func TestWatchdogQuietOnRealNetworks(t *testing.T) {
	for _, kind := range []network.Kind{network.Backpressured, network.Bless, network.AFC} {
		n := network.New(network.Config{Kind: kind, Seed: 23})
		n.AddTicker(traffic.NewGenerator(n, traffic.Config{Rate: 0.4}, n.RandStream))
		for n.Now() < 15_000 {
			before := n.DeliveredPackets()
			n.Run(3000)
			if n.DeliveredPackets() == before && !n.Drained() {
				t.Errorf("%s: no packet delivered in the window ending at cycle %d", kind, n.Now())
			}
		}
	}
}
