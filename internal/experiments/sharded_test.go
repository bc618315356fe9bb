package experiments

import (
	"reflect"
	"testing"

	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/network"
	"afcnet/internal/runner"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

// shardedCell runs one open-loop (kind, seed, rate) cell on an 8x8 mesh
// with the given shard count (0 = the serial reference path), reusing
// the activeSetSnap capture so DeepEqual proves bit-for-bit equality of
// everything a cell measures. The mesh is 8x8 rather than the paper's
// 3x3 so shard count 8 is genuinely eight bands, not a clamp.
func shardedCell(kind network.Kind, seed int64, rate float64, shards int, opt Options) activeSetSnap {
	net := opt.NewNetwork(network.Config{
		Kind: kind, Seed: seed, MeterEnergy: true, Shards: shards,
		System: config.DefaultWithMesh(topology.NewMesh(8, 8)),
	})
	defer net.Close()
	gen := traffic.NewGenerator(net, traffic.Config{Rate: rate}, net.RandStream)
	net.AddTicker(gen)
	net.Run(opt.OpenLoopWarmup)
	net.ResetStats()
	net.Run(opt.OpenLoopMeasure)
	gen.Stop()
	drained := net.RunUntil(net.Drained, 200_000)
	s := activeSetSnap{
		Now:        net.Now(),
		Drained:    drained,
		Counters:   net.Counters(),
		Created:    net.CreatedPackets(),
		Delivered:  net.DeliveredPackets(),
		Offered:    gen.OfferedFlits(),
		Latency:    net.MeanTotalLatency(),
		NetLatency: net.MeanNetLatency(),
		Throughput: net.ThroughputFlits(),
		Energy:     net.TotalEnergy(),
	}
	for n := 0; n < net.Nodes(); n++ {
		s.QueueLens = append(s.QueueLens, net.NI(topology.NodeID(n)).MeanQueueLen())
	}
	return s
}

// TestShardedEqualsSerial is the gate on the sharded tick: every network
// kind, four seeds, three load levels, at shard counts 2, 3 and 8, with
// the invariant checker attached, must produce measurements DeepEqual to
// the serial kernel's. Shard count 3 leaves uneven bands (8 rows over 3
// shards), 8 is one row per band — every boundary pipe staged; the
// post-measurement drain phase additionally exercises whole-kernel
// coasting composed with the barrier. make race-equality runs this under
// the race detector, where any unsynchronized cross-shard access in the
// two-phase barrier is a hard failure.
func TestShardedEqualsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every kind x seed x rate at four shard counts")
	}
	seeds := []int64{1, 2, 3, 5}
	rates := []float64{0.05, 0.30, 0.55}
	type cellKey struct {
		kind network.Kind
		seed int64
		rate float64
	}
	var cells []cellKey
	for k := network.Kind(0); k < network.NumKinds; k++ {
		for _, seed := range seeds {
			for _, rate := range rates {
				cells = append(cells, cellKey{k, seed, rate})
			}
		}
	}
	run := func(shards int) []activeSetSnap {
		opt := Options{
			OpenLoopWarmup:  500,
			OpenLoopMeasure: 1500,
			Parallelism:     4,
			Check:           true,
		}
		outs, err := runner.Map(len(cells), opt.pool(), func(i int) (activeSetSnap, error) {
			c := cells[i]
			return shardedCell(c.kind, c.seed, c.rate, shards, opt), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	serial := run(0)
	for _, shards := range []int{2, 3, 8} {
		sharded := run(shards)
		for i, c := range cells {
			if !reflect.DeepEqual(serial[i], sharded[i]) {
				t.Errorf("%v seed %d rate %.2f: %d-shard tick diverged from serial:\nserial:  %+v\nsharded: %+v",
					c.kind, c.seed, c.rate, shards, serial[i], sharded[i])
			}
		}
	}
}

// TestShardCountInvarianceFig2a is the metamorphic gate on the paper's
// headline figure: the Fig2a closed-loop measurement (low-load workload,
// all Figure 2 kinds, CMP substrate in the loop) must be invariant under
// the shard count. This walks the sharded barrier through the full stack
// — delivery handlers firing inside the parallel phase, bank jobs and
// counters staged per shard, the drop variant's ACK/NACK journals — and
// demands the aggregated Measurements come out DeepEqual.
func TestShardCountInvarianceFig2a(t *testing.T) {
	if testing.Short() {
		t.Skip("three closed-loop Fig2a runs")
	}
	benches := cmp.LowLoad()[:1]
	run := func(shards int) []Measurement {
		opt := Quick()
		opt.Parallelism = 4
		opt.Check = true
		opt.Shards = shards
		ms, err := ClosedLoop(benches, Fig2Kinds, opt)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	serial := run(0)
	for _, shards := range []int{2, 3} {
		sharded := run(shards)
		if !reflect.DeepEqual(serial, sharded) {
			t.Errorf("Fig2a measurements changed under %d shards:\nserial:  %+v\nsharded: %+v",
				shards, serial, sharded)
		}
	}
}
