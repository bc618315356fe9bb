package network

// The sharded tick: one network's cycle split across a persistent worker
// group, bit-identical to the serial kernel for any shard count.
//
// The mesh is partitioned into contiguous row bands (Bands), one shard
// per band. Each cycle the router bank runs one parallel pass with a
// near-empty serial tail:
//
//   Owner commit (parallel, head of each shard's pass): sends that
//   crossed a shard boundary last cycle sit parked in parity-indexed
//   registers on their pipes (link.Pipe staged mode), each registered in
//   the StagedBucket of its directed boundary. The *receiving* shard
//   commits its inbound buckets — lower neighbor's first, then the
//   upper's, each in the sender's deterministic tick order — before
//   ticking its own routers. Link latency >= 1 means a send parked at
//   cycle t arrives no earlier than t+1, so committing it at the head of
//   t+1 is indistinguishable from serial's same-cycle send; and because
//   each boundary bucket has exactly one writing shard and one draining
//   shard, separated by the kernel barrier and by register parity, no
//   phase of the protocol shares memory across shards.
//
//   Phase A (parallel): every shard ticks its own routers in node order,
//   with the per-router quiescence skip of the serial bank — or, when
//   the whole band was quiescent last cycle and nothing arrived or woke
//   it (band-level quiescence), a straight FastForward of the band that
//   skips even the per-router checks. All state a router touches is
//   shard-local by construction — its own latches and meters, its NI,
//   the shard's arena magazine (flit.ArenaShard), and the pipes it owns
//   an end of — except for the journaled effects below.
//
//   Serial tail (same cycle, inside the bank's Tick): the arena
//   reconciles starved magazines (a branch per shard in steady state),
//   then the per-shard effect journals replay shard-ascending — bands
//   are ascending node ranges and each journal is in tick order, so the
//   concatenation is exactly the serial kernel's node order — then the
//   registered drain hooks (the CMP substrate) merge their own staged
//   state. The journals stay serial deliberately: a drop-NACK must
//   reach the global NACK heap before this cycle's housekeeping pops
//   due entries (same-cycle timing), ACK clears touch another shard's
//   NI maps, and create hooks feed a network-global trace — all cheap,
//   all order-sensitive, none per-pipe.
//
// Everything else — housekeeping, traffic, CMP ticker, probes, the
// invariant checker — stays a serial kernel ticker and runs after the
// bank, observing fully committed state, exactly as in the serial path.
// The one observable the parked registers could skew — "is anything
// still in flight?" — is handled by counting parked sends as in-flight
// (Pipe.AppendInFlight) and by stagedPending gating Drained and the
// bank's own quiescence.

import (
	"runtime"
	"sync/atomic"
	"time"

	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/sim"
	"afcnet/internal/topology"
)

// Band is one shard's node range [Lo, Hi): a contiguous run of whole
// mesh rows.
type Band struct {
	Lo, Hi topology.NodeID
}

// Bands partitions a mesh's rows into contiguous bands, one per shard.
// The shard count clamps to [1, Height]; when the height does not divide
// evenly the first Height%shards bands get one extra row. The bands
// cover every node exactly once, in ascending node order — the property
// the drain's ordering argument rests on (and that the partitioner
// property test asserts).
func Bands(mesh topology.Mesh, shards int) []Band {
	if shards < 1 {
		shards = 1
	}
	if shards > mesh.Height {
		shards = mesh.Height
	}
	bands := make([]Band, shards)
	base := mesh.Height / shards
	extra := mesh.Height % shards
	row := 0
	for s := range bands {
		rows := base
		if s < extra {
			rows++
		}
		bands[s] = Band{
			Lo: topology.NodeID(row * mesh.Width),
			Hi: topology.NodeID((row + rows) * mesh.Width),
		}
		row += rows
	}
	return bands
}

// initShards resolves cfg.Shards into the partition, the effect
// journals, the boundary buckets, the arena magazines and the worker
// group. Serial (Shards <= 1) leaves everything nil so the rest of the
// network pays nothing for the feature.
func (n *Network) initShards() {
	n.shards = 1
	if n.cfg.Shards <= 1 {
		return
	}
	n.bands = Bands(n.mesh, n.cfg.Shards)
	n.shards = len(n.bands)
	if n.shards <= 1 {
		n.bands = nil
		return
	}
	n.shardOf = make([]int, n.mesh.Nodes())
	for s, b := range n.bands {
		for v := b.Lo; v < b.Hi; v++ {
			n.shardOf[v] = s
		}
	}
	n.journals = make([][]shardEffect, n.shards)
	// One inbound bucket per directed boundary of each shard: [0] is fed
	// by the lower-numbered neighbor band, [1] by the upper. Row bands in
	// a mesh only ever exchange pipes with adjacent bands, which is what
	// gives each bucket its single writing shard.
	n.inBuckets = make([][2]*link.StagedBucket, n.shards)
	for s := range n.inBuckets {
		if s > 0 {
			n.inBuckets[s][0] = &link.StagedBucket{}
		}
		if s < n.shards-1 {
			n.inBuckets[s][1] = &link.StagedBucket{}
		}
	}
	n.arena.SetShards(n.shards)
	n.group = sim.NewShardGroup(n.shards)
	// Inline dispatch (single-P runtime) runs every shard on one
	// goroutine, so the magazines can skip their cross-shard atomics.
	n.arena.SetShardsSerial(n.group.Inline())
	// Backstop for abandoned networks: the workers reference only their
	// channels, so they cannot keep the network alive, and this finalizer
	// (which captures the group, not the network) reaps them when the
	// network is collected without an explicit Close.
	g := n.group
	runtime.SetFinalizer(n, func(*Network) { g.Close() })
}

// Close stops the sharded tick's worker goroutines. Optional — an
// abandoned network's finalizer does the same — but deterministic for
// tests that build many sharded networks. The network must not be
// stepped afterwards.
func (n *Network) Close() {
	if n.group != nil {
		n.group.Close()
		runtime.SetFinalizer(n, nil)
	}
}

// ShardCount returns the effective number of shards (1 = serial).
func (n *Network) ShardCount() int { return n.shards }

// ShardOf returns the shard owning node.
func (n *Network) ShardOf(node topology.NodeID) int {
	if n.shards <= 1 {
		return 0
	}
	return n.shardOf[node]
}

// ShardBands returns the partition, nil when serial.
func (n *Network) ShardBands() []Band { return n.bands }

// AddDrainHook registers a callback run at the end of every sharded
// drain, after journals replay. Components that stage their own
// cross-shard state during the parallel phase (the CMP substrate) merge
// it here. Like tickers, hooks are dropped by Reset and re-registered
// on reattach.
func (n *Network) AddDrainHook(h func(now uint64)) {
	n.drainHooks = append(n.drainHooks, h)
}

// stagePipes switches the three pipes of the directed edge node->nb into
// staged-send mode when the endpoints straddle a shard boundary, wiring
// each to the bucket of its own direction of flow. The data and ctrl
// pipes are sent by node; the credit pipe flows the other way.
func (n *Network) stagePipes(node, nb topology.NodeID, data *link.Data, credit *link.CreditLink, ctrl *link.CtrlLink) {
	if n.shards <= 1 || n.shardOf[node] == n.shardOf[nb] {
		return
	}
	s, d := n.shardOf[node], n.shardOf[nb]
	data.SetStaged(n.bucketFor(s, d))
	credit.SetStaged(n.bucketFor(d, s))
	ctrl.SetStaged(n.bucketFor(s, d))
}

// bucketFor returns the inbound bucket of shard dst that shard src
// writes. Bands only border adjacent bands, so src is dst-1 or dst+1.
func (n *Network) bucketFor(src, dst int) *link.StagedBucket {
	if src < dst {
		return n.inBuckets[dst][0]
	}
	return n.inBuckets[dst][1]
}

// commitInbound commits the sends parked for shard's routers in the
// given parity slot — the owner-commit step at the head of the shard's
// parallel pass. Lower neighbor's boundary first, then the upper's:
// ascending source shard, matching the old serial drain order (commit
// order across pipes cannot affect results — each commit touches only
// its own pipe — but a fixed order keeps runs byte-for-byte
// reproducible under any interleaving). Reports whether anything
// arrived, so the caller can un-quiesce the band.
func (n *Network) commitInbound(shard, par int) bool {
	committed := false
	for _, b := range n.inBuckets[shard] {
		if b != nil && b.Commit(par) {
			committed = true
		}
	}
	return committed
}

// stagedPending reports whether any boundary bucket still holds
// uncommitted sends. Serial-side read between cycles: Drained and the
// bank's quiescence consult it, because a parked send is in-flight
// traffic that no ring counter sees yet.
func (n *Network) stagedPending() bool {
	for i := range n.inBuckets {
		for _, b := range n.inBuckets[i] {
			if b != nil && b.Pending() {
				return true
			}
		}
	}
	return false
}

// effKind tags a journaled cross-shard effect.
type effKind uint8

const (
	// effAck: delivery ACK — clear retransmission state at the source NI.
	effAck effKind = iota
	// effNack: drop NACK — schedule a source retransmission.
	effNack
	// effCreate: replay a deferred NI create hook (trace recording).
	effCreate
)

// shardEffect is one journaled effect, fields captured by value at the
// staging site (the flit that carried them may be recycled before the
// drain runs).
type shardEffect struct {
	kind   effKind
	node   topology.NodeID // NACK drop site / create-hook NI
	src    topology.NodeID // packet source (ack, nack)
	pkt    uint64
	retx   int
	packet flit.Packet // create
}

// drain is the serial tail of a sharded cycle: replay the effect
// journals in serial node order, run the drain hooks. Runs on the
// caller's goroutine after the barrier; nothing here allocates in steady
// state (journals keep their capacity across cycles). Boundary pipes no
// longer appear here — their owners committed them inside the parallel
// pass.
func (n *Network) drain(now uint64) {
	for s := range n.journals {
		j := n.journals[s]
		for i := range j {
			e := &j[i]
			switch e.kind {
			case effAck:
				n.nis[e.src].ClearRetained(e.pkt)
			case effNack:
				n.scheduleNack(now, e.node, e.src, e.pkt, e.retx)
			case effCreate:
				n.nis[e.node].InvokeCreateHook(e.packet)
			}
		}
		n.journals[s] = j[:0]
	}
	for _, h := range n.drainHooks {
		h(now)
	}
}

// BarrierStats is the sharded tick's accumulated wall-time split,
// collected only while SetBarrierTiming is on: how long the parallel
// pass and the serial tail take per cycle on average, and how busy each
// shard's worker is. The observability layer folds it into run
// manifests and the expvar endpoint.
type BarrierStats struct {
	// Cycles counts the ticks the tallies below cover.
	Cycles uint64
	// PhaseANs is wall time inside the parallel pass (barrier included);
	// PhaseBNs is wall time in the serial tail (arena reconcile, journal
	// replay, drain hooks).
	PhaseANs uint64
	PhaseBNs uint64
	// ShardBusyNs is per-shard wall time actually spent inside tickShard
	// (each worker times its own slot). The gap between max(ShardBusyNs)
	// and PhaseANs is dispatch plus imbalance.
	ShardBusyNs []uint64
}

// barrierTally is the network's internal accumulator behind
// BarrierStats. The fields are atomic so the obs layer can snapshot a
// network that is mid-cycle on another goroutine (the expvar gauge
// refreshes on every cell completion of a parallel sweep); the
// serial-phase fields are written only by the barrier goroutine and
// each ShardBusyNs slot only by its own worker, so the atomics cost a
// few uncontended RMWs per cycle, paid only while timing is on. A
// concurrent snapshot may catch PhaseANs updated before Cycles —
// per-cycle averages can be off by one cycle's worth mid-run, which is
// fine for telemetry.
type barrierTally struct {
	cycles      atomic.Uint64
	phaseANs    atomic.Uint64
	phaseBNs    atomic.Uint64
	shardBusyNs []atomic.Uint64
}

// SetBarrierTiming enables (or disables) barrier wall-time collection.
// Off by default — the timestamps cost a few clock reads per cycle —
// and a no-op on serial networks. Serial-phase only.
func (n *Network) SetBarrierTiming(on bool) {
	if n.shards <= 1 {
		return
	}
	n.timing = on
	if on && n.btally.shardBusyNs == nil {
		n.btally.shardBusyNs = make([]atomic.Uint64, n.shards)
	}
}

// BarrierTally returns a snapshot of the accumulated barrier timing
// (zero value when timing was never enabled). The tally is cumulative
// over the network's lifetime — Reset does not zero it, so a reused
// sweep network reports the sum over all its cells — and safe to call
// from another goroutine while the network ticks (see barrierTally).
func (n *Network) BarrierTally() BarrierStats {
	t := BarrierStats{
		Cycles:   n.btally.cycles.Load(),
		PhaseANs: n.btally.phaseANs.Load(),
		PhaseBNs: n.btally.phaseBNs.Load(),
	}
	for i := range n.btally.shardBusyNs {
		t.ShardBusyNs = append(t.ShardBusyNs, n.btally.shardBusyNs[i].Load())
	}
	return t
}

// ShardDispatchInline reports whether the sharded tick runs its shards
// inline on the caller goroutine (the single-P dispatch mode of
// sim.ShardGroup) rather than on spawned workers. False on serial
// networks. The obs layer records it so a manifest's barrier timings
// say which dispatch path they measured.
func (n *Network) ShardDispatchInline() bool {
	return n.group != nil && n.group.Inline()
}

// shardedBank is the sharded counterpart of the serial routerBank in
// active.go: one kernel entry ticking the whole mesh, but through the
// worker group, each shard running the same per-router loop over its
// band.
type shardedBank struct {
	n     *Network
	dense bool
	// bands holds each shard's routers: a node-ordered sub-slice of
	// n.routers.
	bands [][]router.Router
	// tick is the stored tickShard method value, so group.Run closes over
	// nothing per cycle.
	tick func(shard int, now uint64)

	// Band-level quiescence. quiet[s] means every router of shard s
	// fast-forwarded in its last pass; wake[s] is the edge that
	// invalidates the conclusion from outside the band — an NI enqueue
	// into the band (traffic, retransmission; set through ni.SetWakeFlag)
	// or a fault mutation. While quiet and unwoken and with no inbound
	// commit, tickShard fast-forwards the whole band without even the
	// per-router Quiescent polls. Each worker reads and writes only its
	// own elements during a phase; serial-side writers (housekeeping,
	// traffic, faults) are ordered by the kernel barrier.
	quiet []bool
	wake  []bool
}

// newShardedBank slices n.routers by band into a shardedBank. It also
// wires the per-node shard plumbing that only makes sense once the bank
// exists: each NI's arena magazine (delivery and drop retirement both
// recycle through it) and band-wake flag.
func (n *Network) newShardedBank() *shardedBank {
	b := &shardedBank{
		n:     n,
		dense: n.cfg.DenseKernel,
		bands: make([][]router.Router, n.shards),
		quiet: make([]bool, n.shards),
		wake:  make([]bool, n.shards),
	}
	b.tick = b.tickShard
	for s, band := range n.bands {
		b.bands[s] = n.routers[band.Lo:band.Hi]
		for v := band.Lo; v < band.Hi; v++ {
			n.nis[v].SetArenaShard(n.arena.Shard(s))
			n.nis[v].SetWakeFlag(&b.wake[s])
		}
	}
	return b
}

// wakeAll raises every band's wake edge (fault mutations, reset).
func (b *shardedBank) wakeAll() {
	for i := range b.wake {
		b.wake[i] = true
	}
}

// reset clears the band-quiescence state for a fresh cell.
func (b *shardedBank) reset() {
	for i := range b.quiet {
		b.quiet[i] = false
		b.wake[i] = false
	}
}

// Tick implements sim.Ticker: one sharded cycle — parallel pass
// (owner commits + router ticks) and the serial tail.
func (b *shardedBank) Tick(now uint64) {
	n := b.n
	var t0, t1 time.Time
	if n.timing {
		t0 = time.Now()
	}
	n.inParallel = true
	n.group.Run(now, b.tick)
	n.inParallel = false
	if n.timing {
		t1 = time.Now()
	}
	n.arena.Reconcile()
	n.drain(now)
	if n.timing {
		t2 := time.Now()
		n.btally.cycles.Add(1)
		n.btally.phaseANs.Add(uint64(t1.Sub(t0)))
		n.btally.phaseBNs.Add(uint64(t2.Sub(t1)))
	}
}

// tickShard is one shard's parallel pass: commit last cycle's inbound
// boundary sends, then tick the band — with the per-router quiescence
// skip of the serial bank, or a band-level fast-forward when the whole
// band proved quiescent last pass and nothing arrived or woke it.
//
// The per-router skip stays bit-identical to serial even though a
// shard's view of the pipe in-flight counters is not serial's. In
// serial node order a router's Quiescent sees same-cycle sends from
// lower-numbered routers; with row bands the only lower-numbered
// cross-shard sender is the North neighbor (v-Width) of the band's
// first row, and its same-cycle sends sit parked in staged boundary
// registers — invisible to the counters until the owner commits them
// next cycle. A first-row router can therefore fast-forward where
// serial ticked. That is harmless because of the Quiescent contract
// (documented on each router's Quiescent): whenever Quiescent is true,
// Tick is bit-for-bit equivalent to FastForward(1). The in-flight flit
// serial saw arrives no earlier than the next cycle (link latency >=
// 1), so serial's Tick received nothing and changed nothing FastForward
// does not replay; and at the arrival cycle the send has been
// committed — before this band ticks — visible to both views, and both
// tick.
//
// The band-level skip leans on the same contract plus an induction:
// quiet[shard] was set because every router fast-forwarded last pass,
// fast-forwards preserve quiescence (idle cycles keep AFC mode windows
// clear and draw no randomness), and the only events that can make a
// quiescent router non-quiescent from outside are an inbound boundary
// commit (the committed flag), an NI enqueue into the band or a fault
// mutation (the wake flag). None of those → every router is still
// quiescent → fast-forward them without polling.
func (b *shardedBank) tickShard(shard int, now uint64) {
	if b.n.timing {
		t0 := time.Now()
		b.runShard(shard, now)
		b.n.btally.shardBusyNs[shard].Add(uint64(time.Since(t0)))
		return
	}
	b.runShard(shard, now)
}

// runShard is tickShard minus the timing shell, so the untimed hot path
// carries no clock reads and no time.Time locals.
func (b *shardedBank) runShard(shard int, now uint64) {
	n := b.n
	// Sends parked last cycle carry the opposite parity of now.
	committed := false
	if n.inBuckets != nil {
		committed = n.commitInbound(shard, int(now+1)&1)
	}
	if !b.dense && b.quiet[shard] && !committed && !b.wake[shard] {
		fastForwardRouters(b.bands[shard], 1)
		return
	}
	b.wake[shard] = false
	quiet := tickRouters(b.bands[shard], now, b.dense)
	b.quiet[shard] = !b.dense && quiet
}

// Quiescent implements sim.Quiescer. Serial-side call between cycles, so
// the plain reads race with nothing. Pending boundary commits veto
// quiescence outright — a parked send is in-flight traffic — and bands
// that proved quiescent last pass (and were not woken since) are
// skipped without polling their routers, the serial-side mirror of the
// band-level fast-forward.
func (b *shardedBank) Quiescent(now uint64) bool {
	if b.n.stagedPending() {
		return false
	}
	for s, rs := range b.bands {
		if b.quiet[s] && !b.wake[s] {
			continue
		}
		if !routersQuiescent(rs, now) {
			return false
		}
	}
	return true
}

// FastForward implements sim.Quiescer: skipped cycles advance serially —
// fast-forward bodies are cheap static bookkeeping, not worth a barrier.
func (b *shardedBank) FastForward(cycles uint64) {
	for _, rs := range b.bands {
		fastForwardRouters(rs, cycles)
	}
}
