// Benchmarks regenerating every table and figure of the paper's
// evaluation (DESIGN.md maps experiment IDs to these benches; recorded
// results live in EXPERIMENTS.md). Each bench runs the same harness as
// cmd/figures at reduced length and reports the headline numbers as
// custom metrics, so `go test -bench=.` reproduces the paper's shape in
// one command:
//
//	go test -bench=Fig2c -benchmem .
package afcnet_test

import (
	"sort"
	"strings"
	"testing"

	"afcnet/internal/check"
	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/experiments"
	"afcnet/internal/network"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

func quick() experiments.Options { return experiments.Quick() }

// reportKind attaches a per-kind metric, e.g. perf/afc.
func reportKind(b *testing.B, ms []experiments.Measurement, metric string, get func(experiments.Measurement) float64) {
	b.Helper()
	agg := map[network.Kind]*struct {
		sum float64
		n   int
	}{}
	for _, m := range ms {
		a := agg[m.Kind]
		if a == nil {
			a = &struct {
				sum float64
				n   int
			}{}
			agg[m.Kind] = a
		}
		a.sum += get(m)
		a.n++
	}
	// Report in a fixed order: map iteration order would otherwise shuffle
	// the metric lines between runs, which breaks diffing benchstat output.
	kinds := make([]network.Kind, 0, len(agg))
	for k := range agg {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].String() < kinds[j].String() })
	for _, k := range kinds {
		a := agg[k]
		b.ReportMetric(a.sum/float64(a.n), metric+"/"+k.String())
	}
}

// BenchmarkKernelStep measures the per-cycle cost of the simulation
// kernel itself: one AFC network under moderate uniform open-loop load,
// stepped cycle by cycle. This is the inner loop every harness above
// amplifies; run it with -benchmem to track hot-path allocation cost.
func BenchmarkKernelStep(b *testing.B) {
	net := network.New(network.Config{Kind: network.AFC, Seed: 1, MeterEnergy: true})
	gen := traffic.NewGenerator(net, traffic.Config{
		Pattern: traffic.Uniform{Mesh: net.Mesh()},
		Rate:    0.3,
	}, net.RandStream)
	net.AddTicker(gen)
	net.Run(1000) // reach steady state before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkKernelStep16x16 is BenchmarkKernelStep on a 16x16 mesh — the
// large-radix regime the slab-resident router state targets (the
// paper's own evaluation stops at 3x3; the deflection literature it
// builds on lives at 64-1024 nodes). The per-cycle cost scales with the router count, so
// expect roughly 256/9 of the 3x3 number; what this bench tracks is that
// the per-router cost does not degrade with radix and that the steady
// state stays allocation-free at scale. The injection rate is scaled
// down: uniform traffic on a 16x16 mesh saturates near 0.12
// flits/node/cycle (bisection-limited, ~10.7 average hops), so the 3x3
// bench's 0.3 would sit past saturation where queues — and allocations —
// grow without bound and no steady state exists.
func BenchmarkKernelStep16x16(b *testing.B) {
	net := network.New(network.Config{
		Kind: network.AFC, Seed: 1, MeterEnergy: true,
		System: config.DefaultWithMesh(topology.NewMesh(16, 16)),
	})
	gen := traffic.NewGenerator(net, traffic.Config{
		Pattern: traffic.Uniform{Mesh: net.Mesh()},
		Rate:    0.08,
	}, net.RandStream)
	net.AddTicker(gen)
	net.Run(5000) // reach steady state before measuring (large mesh: longer fill)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkKernelStep16x16Sharded is BenchmarkKernelStep16x16 through
// the sharded tick at 8 shards (two rows per band) — the regime the
// two-phase barrier targets: one large network whose cycle is wide
// enough to split across cores. Results are bit-identical to the serial
// bench's network (TestShardedEqualsSerial); what this bench tracks is
// the wall-clock ratio against BenchmarkKernelStep16x16 (reported by
// cmd/benchjson as a speedup on multi-core hosts; on a single-core host
// the barrier is pure overhead and the ratio inverts) and that the
// parallel arena keeps the steady state allocation-free.
func BenchmarkKernelStep16x16Sharded(b *testing.B) {
	net := network.New(network.Config{
		Kind: network.AFC, Seed: 1, MeterEnergy: true, Shards: 8,
		System: config.DefaultWithMesh(topology.NewMesh(16, 16)),
	})
	defer net.Close()
	gen := traffic.NewGenerator(net, traffic.Config{
		Pattern: traffic.Uniform{Mesh: net.Mesh()},
		Rate:    0.08,
	}, net.RandStream)
	net.AddTicker(gen)
	net.Run(5000) // reach steady state before measuring (large mesh: longer fill)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkKernelStep32x32 scales the large-radix cell to a 32x32 mesh
// (1024 nodes) — the first record at this size. The injection rate
// halves again from the 16x16 cell's: uniform traffic on a k x k mesh
// is bisection-limited at ~2/k flits/node/cycle, so 32x32 saturates
// near 0.06 and 0.04 keeps the cell sub-saturation with a real steady
// state. The warmup stretches to 8000 cycles because the bigger mesh
// takes proportionally longer to fill (~21 average hops).
func BenchmarkKernelStep32x32(b *testing.B) {
	benchKernelStep32x32(b, 0)
}

// BenchmarkKernelStep32x32Sharded is BenchmarkKernelStep32x32 through
// the sharded tick at 8 shards (four rows per band). At this width each
// band is ~4x the 16x16 bench's, so the per-cycle parallel grain is
// coarser and the fixed dispatch cost proportionally smaller — the
// regime where the sharded tick should scale best.
func BenchmarkKernelStep32x32Sharded(b *testing.B) {
	benchKernelStep32x32(b, 8)
}

func benchKernelStep32x32(b *testing.B, shards int) {
	net := network.New(network.Config{
		Kind: network.AFC, Seed: 1, MeterEnergy: true, Shards: shards,
		System: config.DefaultWithMesh(topology.NewMesh(32, 32)),
	})
	defer net.Close()
	gen := traffic.NewGenerator(net, traffic.Config{
		Pattern: traffic.Uniform{Mesh: net.Mesh()},
		Rate:    0.04,
	}, net.RandStream)
	net.AddTicker(gen)
	net.Run(8000) // reach steady state before measuring (1024 nodes: long fill)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkKernelStep64x64 scales the large-radix cell to a 64x64 mesh
// (4096 nodes) — the kilonode record, and the regime the slab-resident
// router state targets: at this size the per-router hot structs alone
// outgrow every cache level, so band-major slab locality is what keeps
// the per-cycle cost near 4x the 32x32 cell's instead of far above it.
// The injection rate halves again (bisection-limited near 0.03) and the
// warmup doubles to 16000 cycles (~42 average hops to fill).
func BenchmarkKernelStep64x64(b *testing.B) {
	benchKernelStep64x64(b, 0)
}

// BenchmarkKernelStep64x64Sharded is BenchmarkKernelStep64x64 through
// the sharded tick at 8 shards (eight rows per band): the coarsest
// parallel grain the repo records, where each band's 512-router working
// set makes the fixed barrier cost smallest relative to useful work.
func BenchmarkKernelStep64x64Sharded(b *testing.B) {
	benchKernelStep64x64(b, 8)
}

func benchKernelStep64x64(b *testing.B, shards int) {
	net := network.New(network.Config{
		Kind: network.AFC, Seed: 1, MeterEnergy: true, Shards: shards,
		System: config.DefaultWithMesh(topology.NewMesh(64, 64)),
	})
	defer net.Close()
	gen := traffic.NewGenerator(net, traffic.Config{
		Pattern: traffic.Uniform{Mesh: net.Mesh()},
		Rate:    0.02,
	}, net.RandStream)
	net.AddTicker(gen)
	net.Run(16000) // reach steady state before measuring (4096 nodes: longest fill)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkKernelStepLowLoad is BenchmarkKernelStep at a near-idle
// injection rate — the regime where active-set scheduling pays: most
// routers are quiescent most cycles, so the per-cycle cost should be a
// small fraction of the dense kernel's (compare against
// BenchmarkKernelStepLowLoadDense).
func BenchmarkKernelStepLowLoad(b *testing.B) {
	benchKernelStepLowLoad(b, false)
}

// BenchmarkKernelStepLowLoadDense is the same workload on the dense
// reference kernel (every ticker every cycle) — the baseline the
// active-set speedup is measured against.
func BenchmarkKernelStepLowLoadDense(b *testing.B) {
	benchKernelStepLowLoad(b, true)
}

func benchKernelStepLowLoad(b *testing.B, dense bool) {
	net := network.New(network.Config{Kind: network.AFC, Seed: 1, MeterEnergy: true, DenseKernel: dense})
	gen := traffic.NewGenerator(net, traffic.Config{
		Pattern: traffic.Uniform{Mesh: net.Mesh()},
		Rate:    0.02,
	}, net.RandStream)
	net.AddTicker(gen)
	net.Run(1000) // reach steady state before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkKernelStepChecked is BenchmarkKernelStep with the
// internal/check invariant checker attached. The checker is a plain
// AddTicker client, so the default path (checks off) is untouched;
// comparing the two benches measures the -check overhead reported in
// EXPERIMENTS.md.
func BenchmarkKernelStepChecked(b *testing.B) {
	net := network.New(network.Config{Kind: network.AFC, Seed: 1, MeterEnergy: true})
	check.Attach(net)
	gen := traffic.NewGenerator(net, traffic.Config{
		Pattern: traffic.Uniform{Mesh: net.Mesh()},
		Rate:    0.3,
	}, net.RandStream)
	net.AddTicker(gen)
	net.Run(1000) // reach steady state before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkFig2aLowLoadPerformance regenerates Figure 2(a): normalized
// performance of the low-load (SPLASH-2) benchmarks. Paper shape: flow
// control has no meaningful performance impact at low load.
func BenchmarkFig2aLowLoadPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms, err := experiments.ClosedLoop(cmp.LowLoad(), experiments.Fig2Kinds, quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportKind(b, ms, "perf", func(m experiments.Measurement) float64 { return m.Perf })
		}
	}
}

// BenchmarkFig2bLowLoadEnergy regenerates Figure 2(b): normalized energy
// at low load. Paper shape: backpressureless lowest; backpressured 42%
// above it; ideal-bypass 32% above it; AFC within ~9% of backpressureless.
func BenchmarkFig2bLowLoadEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms, err := experiments.ClosedLoop(cmp.LowLoad(), experiments.Fig2EnergyKinds, quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportKind(b, ms, "energy", func(m experiments.Measurement) float64 { return m.Energy })
		}
	}
}

// BenchmarkFig2cHighLoadPerformance regenerates Figure 2(c): normalized
// performance at high load. Paper shape: backpressureless degrades ~19%;
// AFC within ~2% of backpressured.
func BenchmarkFig2cHighLoadPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms, err := experiments.ClosedLoop(cmp.HighLoad(), experiments.Fig2Kinds, quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportKind(b, ms, "perf", func(m experiments.Measurement) float64 { return m.Perf })
		}
	}
}

// BenchmarkFig2dHighLoadEnergy regenerates Figure 2(d): normalized energy
// at high load. Paper shape: backpressureless ~35% above backpressured;
// AFC within ~2-3%.
func BenchmarkFig2dHighLoadEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms, err := experiments.ClosedLoop(cmp.HighLoad(), experiments.Fig2Kinds, quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportKind(b, ms, "energy", func(m experiments.Measurement) float64 { return m.Energy })
		}
	}
}

// BenchmarkFig3aEnergyBreakdownLow regenerates Figure 3(a): buffer/link/
// rest energy partition at low load.
func BenchmarkFig3aEnergyBreakdownLow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms, err := experiments.ClosedLoop(cmp.LowLoad(), experiments.Fig2Kinds, quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportKind(b, ms, "bufferE", func(m experiments.Measurement) float64 { return m.BufferE })
			reportKind(b, ms, "linkE", func(m experiments.Measurement) float64 { return m.LinkE })
		}
	}
}

// BenchmarkFig3bEnergyBreakdownHigh regenerates Figure 3(b).
func BenchmarkFig3bEnergyBreakdownHigh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms, err := experiments.ClosedLoop(cmp.HighLoad(), experiments.Fig2Kinds, quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportKind(b, ms, "bufferE", func(m experiments.Measurement) float64 { return m.BufferE })
			reportKind(b, ms, "linkE", func(m experiments.Measurement) float64 { return m.LinkE })
		}
	}
}

// BenchmarkModeDutyCycle regenerates the Section V-A duty-cycle numbers
// (water/barnes ~0% backpressured; apache/specjbb ~100%).
func BenchmarkModeDutyCycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms, err := experiments.ClosedLoop(cmp.AllBenchmarks(), []network.Kind{network.AFC}, quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, m := range ms {
				b.ReportMetric(m.BufferedFraction, "bufmode/"+m.Bench)
			}
		}
	}
}

// BenchmarkTable3InjectionRates regenerates the Table III calibration
// (achieved flits/node/cycle per workload on the baseline network).
func BenchmarkTable3InjectionRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.Measured, "inj/"+r.Bench)
			}
		}
	}
}

// BenchmarkFig4LatencyThroughput regenerates the open-loop
// latency-throughput comparison ("Other results": similar low-load
// latencies; AFC and backpressured reach near-identical saturation
// throughput; backpressureless saturates earlier).
func BenchmarkFig4LatencyThroughput(b *testing.B) {
	rates := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	kinds := []network.Kind{network.Backpressured, network.Bless, network.BlessDrop, network.AFC}
	for i := 0; i < b.N; i++ {
		pts := experiments.LatencySweep(kinds, rates, quick())
		if i == b.N-1 {
			for k, v := range experiments.SaturationThroughput(pts) {
				b.ReportMetric(v, "satThroughput/"+k.String())
			}
		}
	}
}

// BenchmarkFig5SpatialVariation regenerates the Section V-B consolidation
// experiment (AFC is the best energy configuration under spatial load
// variation; paper: backpressured +9%, backpressureless +30%).
func BenchmarkFig5SpatialVariation(b *testing.B) {
	kinds := []network.Kind{network.Backpressured, network.Bless, network.AFC}
	for i := 0; i < b.N; i++ {
		rs := experiments.Quadrant(kinds, 0.9, 0.1, quick())
		if i == b.N-1 {
			var afc float64
			for _, r := range rs {
				if r.Kind == network.AFC {
					afc = r.Energy
				}
			}
			for _, r := range rs {
				b.ReportMetric(r.Energy/afc, "energyOverAFC/"+r.Kind.String())
				b.ReportMetric(r.HotLatency, "hotLatency/"+r.Kind.String())
			}
		}
	}
}

// BenchmarkGossipHotspot regenerates the gossip-induced mode-switch
// demonstration (Section V-A: required for correctness; exercised by an
// open-loop hotspot).
func BenchmarkGossipHotspot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.GossipHotspot(int64(i)+1, quick())
		if !r.Drained || r.Delivered != r.Created {
			b.Fatalf("hotspot run lost packets: %+v", r)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.GossipSwitches), "gossipSwitches")
			b.ReportMetric(float64(r.EscapeEvents), "escapeEvents")
		}
	}
}

// BenchmarkAblationLazyVCA regenerates ablation A1: lazy VC allocation
// halves buffering while matching baseline performance.
func BenchmarkAblationLazyVCA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationLazyVCA(quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.PerfRatio, "perfRatio/"+r.Bench)
				b.ReportMetric(r.BufferEnergyCut, "bufferCut/"+r.Bench)
			}
		}
	}
}

// BenchmarkAblationThresholds regenerates ablation A2: sensitivity of
// AFC's robustness to the contention-threshold setting.
func BenchmarkAblationThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationThresholds([]float64{0.5, 1.0, 2.0}, quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.HighLoadPerf, "apachePerf/scale")
				b.ReportMetric(r.LowLoadEnergy, "waterEnergy/scale")
			}
		}
	}
}

// BenchmarkAblationDropVsDeflect regenerates the Section II claim that
// the drop-based backpressureless variant saturates at lower loads than
// deflection.
func BenchmarkAblationDropVsDeflect(b *testing.B) {
	rates := []float64{0.15, 0.25, 0.35, 0.45, 0.55}
	for i := 0; i < b.N; i++ {
		pts := experiments.LatencySweep(
			[]network.Kind{network.Bless, network.BlessDrop}, rates, quick())
		if i == b.N-1 {
			sat := experiments.SaturationThroughput(pts)
			b.ReportMetric(sat[network.Bless], "satThroughput/deflect")
			b.ReportMetric(sat[network.BlessDrop], "satThroughput/drop")
		}
	}
}

// BenchmarkAblationEjectWidth regenerates ablation A4: the ejection-path
// width governs how much the deflection router loses at high load.
func BenchmarkAblationEjectWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationEjectWidth([]int{1, 2}, quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.BlessPerf, "blessPerf/width")
			}
		}
	}
}

// BenchmarkAblationBaselineSizing regenerates ablation A5: the paper's
// baseline buffer configuration is energy-optimized — doubling VCs or
// buffer depth buys no performance but costs energy.
func BenchmarkAblationBaselineSizing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationBaselineSizing(quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for j, r := range rows {
				if j == 0 {
					continue
				}
				b.ReportMetric(r.Perf, "perfVsPaperCfg")
				b.ReportMetric(r.Energy, "energyVsPaperCfg")
			}
		}
	}
}

// BenchmarkAblationPipeline regenerates ablation A6: the cost of a
// realistic (non-speculative, 3-stage) backpressured pipeline versus the
// paper's charitable 2-stage baseline, and AFC against both.
func BenchmarkAblationPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationPipeline(quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.RealisticPerf, "realisticPerf/"+r.Bench)
				b.ReportMetric(r.AFCvsRealistic, "afcVsRealistic/"+r.Bench)
			}
		}
	}
}

// BenchmarkAblationContentionMetric regenerates ablation A7: the paper's
// local-contention-threshold metric localizes forward switches to the hot
// region, while the rejected cumulative-misroute metric fires diffusely
// (Section III-B's argument for local measures of contention).
func BenchmarkAblationContentionMetric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationContentionMetric(quick())
		if i == b.N-1 {
			for _, r := range rows {
				name := "nearFrac/thresholds"
				if strings.Contains(r.Policy, "rejected") {
					name = "nearFrac/misroutes"
				}
				b.ReportMetric(r.NearFraction, name)
			}
		}
	}
}
