package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"afcnet/internal/cmp"
	"afcnet/internal/network"
	"afcnet/internal/scenario"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

// stack is one worker's reusable simulation stack for one kind, like
// the per-worker entries of internal/experiments: consecutive cells of
// the same kind on the same worker rewind it with Reset instead of
// rebuilding.
type stack struct {
	net *network.Network
	sys *cmp.System
	gen *traffic.Generator
}

// worker owns the stacks of one pool worker for one round.
type worker struct {
	stacks map[network.Kind]*stack
}

func newWorker() *worker { return &worker{stacks: make(map[network.Kind]*stack)} }

// release drops the worker's stack of kind k.
func (w *worker) release(k network.Kind) {
	if s := w.stacks[k]; s != nil {
		s.net.Close()
		delete(w.stacks, k)
	}
}

// close releases every stack the worker still holds.
func (w *worker) close() {
	for k := range w.stacks {
		w.release(k)
	}
}

// setupTimes splits a cell's set-up host time by layer call.
type setupTimes struct {
	newNs, resetNs, cmpNs, trafficNs, engineNs int64
	news, resets                               int
}

func (s setupTimes) total() int64 {
	return s.newNs + s.resetNs + s.cmpNs + s.trafficNs + s.engineNs
}

// cellResult is what one cell hands back: host timings, simulated work,
// the output digest and the counters the per-layer metrics read.
type cellResult struct {
	spec   *cellSpec
	setup  setupTimes
	runNs  int64
	cycles uint64 // simulated cycles
	nodes  int
	flits  uint64 // simulated flits delivered
	digest string
	err    error
	out    cellOutputs
	trace  *ledger // nil unless traced
}

func (r *cellResult) routerCycles() float64 { return float64(r.cycles) * float64(r.nodes) }

// cellOutputs are the layer counters read after the run.
type cellOutputs struct {
	tx, writebacks   uint64
	mode             network.ModeStats
	deflections      uint64
	dropped, created uint64
	arenaBlocks      int
	live             int // flits still allocated after an open-loop drain
	drained          bool
	closed           cmp.RunResult
	window           openWindow
	phases           []scenario.PhaseStats
}

// runCell sets up and runs one cell with seed on w. With traced set,
// the cell carries a ledger: the benchmark's tickers run behind timers
// and two always-quiescent probes bracket them. A traced cell's digest
// must equal the untraced cell's.
func (w *worker) runCell(c *cellSpec, seed int64, shards int, traced bool) (res cellResult) {
	res.spec = c
	defer func() {
		if p := recover(); p != nil {
			res.err = fmt.Errorf("%s: panic: %v", c.name, p)
		}
	}()
	var led *ledger
	if traced {
		led = &ledger{}
		res.trace = led
	}

	// Set-up: the network, then its traffic layer, each timed alone.
	cfg := network.Config{System: c.sys, Kind: c.kind, Seed: seed, MeterEnergy: c.bench != nil, Shards: shards}
	t := nanotime()
	s := w.stacks[c.kind]
	if s != nil && s.net.Reset(cfg) {
		res.setup.resetNs = nanotime() - t
		res.setup.resets = 1
	} else {
		if s != nil {
			s.net.Close()
		}
		s = &stack{net: network.New(cfg)}
		w.stacks[c.kind] = s
		res.setup.newNs = nanotime() - t
		res.setup.news = 1
	}
	net := s.net
	res.nodes = net.Nodes()
	led.attach(net)

	var eng *scenario.Engine
	if c.bench != nil {
		mark := net.Kernel().Mark()
		t = nanotime()
		if s.sys == nil {
			s.sys = cmp.NewSystem(net, c.bench.params, net.RandStream)
		} else {
			s.sys.Reattach(c.bench.params)
		}
		res.setup.cmpNs = nanotime() - t
		if led != nil {
			// Re-slot the system's ticker behind its timer.
			net.Kernel().Truncate(mark)
			net.AddTicker(led.wrap(s.sys, layerCMP))
		}
	} else {
		tcfg := traffic.Config{Pattern: traffic.Uniform{Mesh: net.Mesh()}}
		if c.spec != nil {
			tcfg = c.spec.TrafficConfig(net.Mesh())
		} else {
			tcfg.Rate = c.open.rate
		}
		t = nanotime()
		if s.gen == nil {
			s.gen = traffic.NewGenerator(net, tcfg, net.RandStream)
		} else {
			s.gen.Reattach(tcfg)
		}
		res.setup.trafficNs = nanotime() - t
		if c.spec != nil {
			// The engine ticks before the generator, as in
			// experiments.Scenario.
			t = nanotime()
			eng = scenario.NewEngine(net, s.gen, c.spec)
			res.setup.engineNs = nanotime() - t
			net.AddTicker(led.wrap(eng, layerScenario))
		}
		net.AddTicker(led.wrap(s.gen, layerTraffic))
	}
	led.close(net)

	// Run.
	o := &res.out
	start := nanotime()
	led.begin(start)
	switch {
	case c.bench != nil:
		var ok bool
		o.closed, ok = s.sys.Measure(c.bench.warmupTx, c.bench.measureTx, closedLoopCycleLimit)
		if !ok {
			res.err = fmt.Errorf("%s: exceeded %d cycles", c.name, closedLoopCycleLimit)
		}
	case c.open != nil:
		net.Run(c.open.warmup)
		net.ResetStats()
		net.Run(c.open.window)
		o.window = openWindow{net.MeanNetLatency(), net.MeanTotalLatency(), net.ThroughputFlits()}
		s.gen.Stop()
		o.drained = net.RunUntil(net.Drained, c.open.drainLimit)
	default:
		net.Run(c.spec.Duration)
	}
	end := nanotime()
	res.runNs = end - start
	led.finish(end)

	// Outputs, outside the timed span.
	res.cycles = net.Now()
	for i := 0; i < net.Nodes(); i++ {
		res.flits += net.NI(topology.NodeID(i)).TotalEjectedFlits()
	}
	o.mode = net.ModeStats()
	o.deflections = net.TotalDeflections()
	o.dropped = net.TotalDropped()
	o.created = net.CreatedPackets()
	o.arenaBlocks = net.Arena().Blocks()
	h := sha256.New()
	put := func(vs ...any) {
		for _, v := range vs {
			fmt.Fprintf(h, "%v;", v)
		}
	}
	put(res.cycles, res.flits, o.mode, o.deflections, o.dropped, o.created, net.DeliveredPackets())
	switch {
	case c.bench != nil:
		o.tx = s.sys.CompletedTransactions()
		o.writebacks = s.sys.WritebacksSent()
		put(o.closed, net.TotalEnergy())
	case c.open != nil:
		o.live = net.Arena().Live()
		put(o.window, o.drained, o.live)
		if res.err == nil {
			res.err = checkOpen(c, o)
		}
	default:
		o.phases = eng.Phases()
		put(o.phases, net.ThroughputFlits())
	}
	latencySummary(h, net)
	res.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return res
}

// openWindow is an open-loop cell's measured window, read before the
// drain.
type openWindow struct {
	netLat, totalLat, accepted float64
}

// checkOpen fails an open-loop cell that did not drain, leaked flits,
// or accepted less than 0.95x its offered rate (the load slid into
// saturation).
func checkOpen(c *cellSpec, o *cellOutputs) error {
	switch {
	case !o.drained:
		return fmt.Errorf("%s: not drained after %d cycles", c.name, c.open.drainLimit)
	case o.live != 0:
		return fmt.Errorf("%s: %d flits live after the drain", c.name, o.live)
	case o.window.accepted < 0.95*c.open.rate:
		return fmt.Errorf("%s: accepted %.4f of %.4f flits/node/cycle offered", c.name, o.window.accepted, c.open.rate)
	}
	return nil
}

// latencySummary hashes every node's latency distribution: count, max
// and percentiles of network and total latency.
func latencySummary(w io.Writer, net *network.Network) {
	for i := 0; i < net.Nodes(); i++ {
		nif := net.NI(topology.NodeID(i))
		nl, tl := nif.NetLatency(), nif.TotalLatency()
		if nl.Count() == 0 {
			fmt.Fprint(w, "-;")
			continue
		}
		fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d;", nl.Count(), nl.Max(), nl.Percentile(50), nl.Percentile(99),
			tl.Percentile(50), tl.Percentile(99))
	}
}
