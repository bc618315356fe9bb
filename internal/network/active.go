package network

import (
	"os"
	"strconv"

	"afcnet/internal/core"
	"afcnet/internal/deflect"
	"afcnet/internal/vcrouter"
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
// cmd/sweep, cmd/benchjson). Values <= 1 (or anything unparseable) keep
// the serial reference path.
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

// The router banks below register a whole mesh's routers as ONE kernel
// entry per network. This buys two things over per-router registration:
// the hot per-cycle loop dispatches Tick/Quiescent/FastForward on a
// concrete type (devirtualized, inlinable) instead of through the
// router.Router interface, and the active-set skip happens per router
// inside the bank, so one busy router does not force its 63 idle
// neighbors through full Tick bodies. Routers tick in node order, exactly
// as the previous one-entry-per-router registration did.
//
// The banks are written out per concrete type on purpose: a generic bank
// would route every call through the type parameter's dictionary and give
// the devirtualization back.

type vcBank struct {
	rs    []*vcrouter.Router
	dense bool
}

func (b *vcBank) Tick(now uint64) {
	for _, r := range b.rs {
		if !b.dense && r.Quiescent(now) {
			r.FastForward(1)
		} else {
			r.Tick(now)
		}
	}
}

func (b *vcBank) Quiescent(now uint64) bool {
	for _, r := range b.rs {
		if !r.Quiescent(now) {
			return false
		}
	}
	return true
}

func (b *vcBank) FastForward(cycles uint64) {
	for _, r := range b.rs {
		r.FastForward(cycles)
	}
}

type deflectBank struct {
	rs    []*deflect.Router
	dense bool
}

func (b *deflectBank) Tick(now uint64) {
	for _, r := range b.rs {
		if !b.dense && r.Quiescent(now) {
			r.FastForward(1)
		} else {
			r.Tick(now)
		}
	}
}

func (b *deflectBank) Quiescent(now uint64) bool {
	for _, r := range b.rs {
		if !r.Quiescent(now) {
			return false
		}
	}
	return true
}

func (b *deflectBank) FastForward(cycles uint64) {
	for _, r := range b.rs {
		r.FastForward(cycles)
	}
}

type dropBank struct {
	rs    []*deflect.DropRouter
	dense bool
}

func (b *dropBank) Tick(now uint64) {
	for _, r := range b.rs {
		if !b.dense && r.Quiescent(now) {
			r.FastForward(1)
		} else {
			r.Tick(now)
		}
	}
}

func (b *dropBank) Quiescent(now uint64) bool {
	for _, r := range b.rs {
		if !r.Quiescent(now) {
			return false
		}
	}
	return true
}

func (b *dropBank) FastForward(cycles uint64) {
	for _, r := range b.rs {
		r.FastForward(cycles)
	}
}

type coreBank struct {
	rs    []*core.Router
	dense bool
}

func (b *coreBank) Tick(now uint64) {
	for _, r := range b.rs {
		if !b.dense && r.Quiescent(now) {
			r.FastForward(1)
		} else {
			r.Tick(now)
		}
	}
}

func (b *coreBank) Quiescent(now uint64) bool {
	for _, r := range b.rs {
		if !r.Quiescent(now) {
			return false
		}
	}
	return true
}

func (b *coreBank) FastForward(cycles uint64) {
	for _, r := range b.rs {
		r.FastForward(cycles)
	}
}

// registerRouterBank wraps n.routers in the concrete bank for the
// network's kind and registers it as a single kernel entry. With the
// sharded tick enabled the bank is the sharded one (shard.go), which
// runs the same per-router loops through the worker-group barrier.
func (n *Network) registerRouterBank() {
	if n.shards > 1 {
		if b := n.newShardedBank(); b != nil {
			n.shardBank = b
			n.kernel.Register(b)
			return
		}
	}
	switch n.cfg.Kind {
	case Backpressured, BackpressuredIdealBypass:
		b := &vcBank{dense: n.cfg.DenseKernel}
		for _, r := range n.routers {
			b.rs = append(b.rs, r.(*vcrouter.Router))
		}
		n.kernel.Register(b)
	case Bless:
		b := &deflectBank{dense: n.cfg.DenseKernel}
		for _, r := range n.routers {
			b.rs = append(b.rs, r.(*deflect.Router))
		}
		n.kernel.Register(b)
	case BlessDrop:
		b := &dropBank{dense: n.cfg.DenseKernel}
		for _, r := range n.routers {
			b.rs = append(b.rs, r.(*deflect.DropRouter))
		}
		n.kernel.Register(b)
	case AFC, AFCAlwaysBuffered:
		b := &coreBank{dense: n.cfg.DenseKernel}
		for _, r := range n.routers {
			b.rs = append(b.rs, r.(*core.Router))
		}
		n.kernel.Register(b)
	default:
		// Unknown kind: keep the generic per-router registration so tests
		// exercising future kinds still run (no active-set skipping).
		for _, r := range n.routers {
			n.kernel.Register(r)
		}
	}
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
