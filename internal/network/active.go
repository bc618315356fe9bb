package network

import (
	"os"
	"strconv"

	"afcnet/internal/router"
)

// DenseEnvVar forces the dense reference kernel in every harness that
// consults DenseFromEnv (cmd/afcsim, cmd/figures, cmd/sweep).
const DenseEnvVar = "AFCSIM_DENSE"

// DenseFromEnv reports whether AFCSIM_DENSE requests dense-kernel runs.
// Any value other than empty, "0", "false", "no" or "off" disables
// active-set scheduling.
func DenseFromEnv() bool {
	return envSet(DenseEnvVar)
}

// NoPoolEnvVar forces heap-allocated flits (no arena) in every harness
// that consults NoPoolFromEnv (cmd/afcsim, cmd/figures, cmd/sweep).
const NoPoolEnvVar = "AFCSIM_NOPOOL"

// NoPoolFromEnv reports whether AFCSIM_NOPOOL requests the heap
// reference path. Any value other than empty, "0", "false", "no" or
// "off" disables the flit arena.
func NoPoolFromEnv() bool {
	return envSet(NoPoolEnvVar)
}

// ShardsEnvVar sets the default shard count of the sharded tick in every
// harness that consults ShardsFromEnv (cmd/afcsim, cmd/figures,
// cmd/sweep). Values <= 1 (or anything unparseable) keep the serial
// reference path.
const ShardsEnvVar = "AFCSIM_SHARDS"

// ShardsFromEnv returns the shard count requested via AFCSIM_SHARDS, or
// 0 (serial) when unset or not a positive integer.
func ShardsFromEnv() int {
	v, err := strconv.Atoi(os.Getenv(ShardsEnvVar))
	if err != nil || v < 0 {
		return 0
	}
	return v
}

func envSet(name string) bool {
	switch os.Getenv(name) {
	case "", "0", "false", "no", "off":
		return false
	}
	return true
}

// The router bank registers a whole mesh's routers as ONE kernel entry
// per network, so the active-set skip happens per router inside the bank
// and one busy router does not force its idle neighbors through full
// Tick bodies. Routers tick in node order, exactly as one-entry-per-router
// registration would. Every router kind goes through the same loop, via
// the router.Router interface. Per-kind banks on concrete types bought
// nothing measurable: the only call the compiler ever inlined through
// them was vcrouter's FastForward, and removing them left perfbench's
// mesh32-uniform and paper-closed-3x3 ns_per_router_cycle within
// run-to-run spread on a 2-vCPU host.

// tickRouters runs one cycle over a node-ordered run of routers, ticking
// each one — or, unless dense, fast-forwarding it by one cycle when it
// is provably idle (the Quiescer contract makes the two equivalent). It
// reports whether every router fast-forwarded.
func tickRouters(rs []router.Router, now uint64, dense bool) bool {
	quiet := true
	for _, r := range rs {
		if !dense && r.Quiescent(now) {
			r.FastForward(1)
		} else {
			r.Tick(now)
			quiet = false
		}
	}
	return quiet
}

// routersQuiescent reports whether every router of rs is quiescent.
func routersQuiescent(rs []router.Router, now uint64) bool {
	for _, r := range rs {
		if !r.Quiescent(now) {
			return false
		}
	}
	return true
}

// fastForwardRouters applies k skipped idle cycles to every router of rs.
func fastForwardRouters(rs []router.Router, k uint64) {
	for _, r := range rs {
		r.FastForward(k)
	}
}

// routerBank is the serial router bank: the whole mesh as one run.
type routerBank struct {
	rs    []router.Router
	dense bool
}

func (b *routerBank) Tick(now uint64) { tickRouters(b.rs, now, b.dense) }

func (b *routerBank) Quiescent(now uint64) bool { return routersQuiescent(b.rs, now) }

func (b *routerBank) FastForward(cycles uint64) { fastForwardRouters(b.rs, cycles) }

// registerRouterBank registers the network's router bank as a single
// kernel entry: the sharded one (shard.go) with the sharded tick
// enabled, which runs the same per-router loop through the worker-group
// barrier, the serial one otherwise.
func (n *Network) registerRouterBank() {
	if n.shards > 1 {
		n.shardBank = n.newShardedBank()
		n.kernel.Register(n.shardBank)
		return
	}
	n.kernel.Register(&routerBank{rs: n.routers, dense: n.cfg.DenseKernel})
}

// houseKeeper is the per-cycle housekeeping entry (NI queue sampling, due
// NACK retransmissions), as a Quiescer/Sleeper so NACK backoff waits and
// drained stretches fast-forward instead of scanning every NI each cycle.
type houseKeeper struct{ n *Network }

// Tick implements sim.Ticker.
func (h *houseKeeper) Tick(now uint64) { h.n.houseKeep(now) }

// Quiescent implements sim.Quiescer: with every NI source queue empty the
// sampling pass accumulates only zeros, and with no due NACK the
// retransmission loop does not run.
func (h *houseKeeper) Quiescent(now uint64) bool {
	for _, nif := range h.n.nis {
		if nif.QueuedFlits() != 0 {
			return false
		}
	}
	return len(h.n.nacks) == 0 || h.n.nacks[0].due > now
}

// FastForward implements sim.Quiescer: record the skipped cycles' zero
// queue-depth samples in bulk.
func (h *houseKeeper) FastForward(cycles uint64) {
	for _, nif := range h.n.nis {
		nif.SampleQueuesIdle(cycles)
	}
}

// NextWake implements sim.Sleeper: the earliest scheduled NACK
// retransmission. While the system is frozen no new NACKs are scheduled,
// so the heap head is the only future state change.
func (h *houseKeeper) NextWake(now uint64) (uint64, bool) {
	if len(h.n.nacks) == 0 {
		return 0, false
	}
	return h.n.nacks[0].due, true
}
