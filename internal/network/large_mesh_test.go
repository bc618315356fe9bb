package network_test

import (
	"testing"

	"afcnet/internal/check"
	"afcnet/internal/config"
	"afcnet/internal/network"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

// TestLargeMesh16x16Smoke is the large-radix smoke cell `make ci` runs in
// short mode: a 16x16 AFC network (the large-radix regime the
// slab-resident router state targets; the paper's own evaluation stops
// at 3x3) under brief
// sub-saturation uniform load, with the invariant checker attached, must
// deliver and drain without losing a flit. The cycle counts are kept
// small so the cell stays cheap enough to run on every CI invocation.
func TestLargeMesh16x16Smoke(t *testing.T) {
	largeMesh16x16Smoke(t, 0)
}

// TestLargeMesh16x16ShardedSmoke is the same cell through the sharded
// tick at 8 shards (two rows per band): every boundary behavior — staged
// pipes, effect journals, the parallel arena — under the checker, cheap
// enough for every CI invocation. TestShardedEqualsSerial proves
// bit-equality to serial exhaustively; this cell just keeps the sharded
// path exercised in short mode.
func TestLargeMesh16x16ShardedSmoke(t *testing.T) {
	largeMesh16x16Smoke(t, 8)
}

func largeMesh16x16Smoke(t *testing.T, shards int) {
	largeMeshSmoke(t, 16, 0.08, 1500, shards)
}

// TestLargeMesh32x32Smoke scales the smoke cell to a 32x32 mesh (1024
// nodes) — the first record at this size, matching the
// BenchmarkKernelStep32x32 regime (0.04 flits/node/cycle: the bigger
// mesh's bisection limit halves again). Too heavy for -short CI runs;
// `make smoke-32x32` runs it on demand.
func TestLargeMesh32x32Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("32x32 cell is too heavy for -short")
	}
	largeMeshSmoke(t, 32, 0.04, 2500, 0)
}

// TestLargeMesh32x32ShardedSmoke is the 32x32 cell through the sharded
// tick at 8 shards (four rows per band), checker attached: every
// boundary behavior at the coarsest parallel grain the repo records.
func TestLargeMesh32x32ShardedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("32x32 cell is too heavy for -short")
	}
	largeMeshSmoke(t, 32, 0.04, 2500, 8)
}

// TestLargeMesh64x64Smoke is the kilonode record cell: a 64x64 AFC
// network (4096 nodes), the regime the slab-resident router state
// targets, under brief sub-saturation uniform load (0.02
// flits/node/cycle — the bisection limit halves again from 32x32) with
// the invariant checker attached. It runs in short mode so `make
// smoke-64x64` can gate CI; the cycle count is kept low because a
// serial 64x64 cycle costs ~4x the 32x32 cell's.
func TestLargeMesh64x64Smoke(t *testing.T) {
	largeMeshSmoke(t, 64, 0.02, 1200, 0)
}

// TestLargeMesh64x64ShardedSmoke is the 64x64 cell through the sharded
// tick at 8 shards (eight rows per band), checker attached: the
// coarsest parallel grain the repo records, where each band's working
// set spans 512 routers and the slab layout matters most.
func TestLargeMesh64x64ShardedSmoke(t *testing.T) {
	largeMeshSmoke(t, 64, 0.02, 1200, 8)
}

func largeMeshSmoke(t *testing.T, side int, rate float64, cycles uint64, shards int) {
	n := network.New(network.Config{
		Kind: network.AFC, Seed: 7, MeterEnergy: true, Shards: shards,
		System: config.DefaultWithMesh(topology.NewMesh(side, side)),
	})
	defer n.Close()
	check.Attach(n)
	gen := traffic.NewGenerator(n, traffic.Config{
		Pattern: traffic.Uniform{Mesh: n.Mesh()},
		Rate:    rate,
	}, n.RandStream)
	n.AddTicker(gen)
	n.Run(cycles)
	if n.CreatedPackets() == 0 || n.DeliveredPackets() == 0 {
		t.Fatalf("%dx%d cell moved no traffic: created %d, delivered %d",
			side, side, n.CreatedPackets(), n.DeliveredPackets())
	}
	gen.Stop()
	if !n.RunUntil(n.Drained, 100_000) {
		t.Fatalf("%dx%d network failed to drain: delivered %d/%d",
			side, side, n.DeliveredPackets(), n.CreatedPackets())
	}
	if n.DeliveredPackets() != n.CreatedPackets() {
		t.Fatalf("%dx%d cell lost packets: %d/%d",
			side, side, n.DeliveredPackets(), n.CreatedPackets())
	}
}
