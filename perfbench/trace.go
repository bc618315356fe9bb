package main

import (
	_ "unsafe" // go:linkname

	"afcnet/internal/network"
	"afcnet/internal/sim"
	"afcnet/internal/topology"
)

// nanotime is the runtime's monotonic clock: the traced run reads it a
// few times per simulated cycle, where time.Now's wall-clock read would
// double the cost.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// layer indexes the ledger's per-component buckets.
type layer int

const (
	layerTraffic layer = iota
	layerCMP
	layerScenario
	numLayers
)

// sampleEvery is how many stepped cycles pass between the probe's
// samples of the NI source queues.
const sampleEvery = 64

// ledger is one traced cell's host-time account of its run span. Every
// interval between two consecutive timestamps goes to exactly one
// bucket, so the buckets sum to the span; what follows the last
// timestamp before the span ends is unattributed.
//
// Each simulated cycle runs the network's own tickers, then the
// benchmark's: first, the wrapped traffic layer, last. The gap from
// last (previous cycle) to first is network self time: the router bank,
// links, NIs, housekeeping, kernel dispatch and, between windows, the
// stats reset. Wrapped Tick calls go to their layer. What lies between
// first and last outside those calls (the probes, their queue samples,
// the kernel's quiescence checks of the benchmark's tickers) is probe
// time.
type ledger struct {
	net         *network.Network
	first, last probe

	spanNs, at   int64
	selfNs       int64
	probeNs      int64
	layerNs      [numLayers]int64
	layerTicks   [numLayers]int64
	unattributed int64

	stepped, coasted uint64
	sinceSample      int
	queuedPeak       int

	barrier0, barrier network.BarrierStats
}

// attach registers the first probe right behind the network's own
// tickers and starts the barrier timers of a sharded network. The
// probes never tick, so they leave results untouched.
func (l *ledger) attach(net *network.Network) {
	if l == nil {
		return
	}
	l.net = net
	l.first = probe{l: l, first: true}
	l.last = probe{l: l}
	net.AddTicker(&l.first)
	net.SetBarrierTiming(true)
	l.barrier0 = net.BarrierTally()
}

// close registers the last probe behind every other ticker.
func (l *ledger) close(net *network.Network) {
	if l != nil {
		net.AddTicker(&l.last)
	}
}

func (l *ledger) begin(t int64) {
	if l != nil {
		l.spanNs = -t
		l.at = t
	}
}

func (l *ledger) finish(t int64) {
	if l != nil {
		l.spanNs += t
		l.unattributed = t - l.at
		l.barrier = l.net.BarrierTally()
	}
}

// attributed is the part of the run span the buckets account for.
func (l *ledger) attributed() int64 {
	t := l.selfNs + l.probeNs
	for _, v := range l.layerNs {
		t += v
	}
	return t
}

// wrap returns t behind a timer charging its Tick calls to layer ly.
// The wrapper implements exactly the sim.Quiescer and sim.Sleeper set
// t implements, so the kernel schedules it as it would t. A nil ledger
// returns t itself.
func (l *ledger) wrap(t sim.Ticker, ly layer) sim.Ticker {
	if l == nil {
		return t
	}
	tt := timedTicker{t: t, l: l, ly: ly}
	q, isQ := t.(sim.Quiescer)
	s, isS := t.(sim.Sleeper)
	switch {
	case isS:
		return &timedSleeper{timedQuiescer{tt, q}, s}
	case isQ:
		return &timedQuiescer{tt, q}
	}
	return &tt
}

type timedTicker struct {
	t  sim.Ticker
	l  *ledger
	ly layer
}

func (w *timedTicker) Tick(now uint64) {
	l := w.l
	t0 := nanotime()
	l.probeNs += t0 - l.at
	w.t.Tick(now)
	t1 := nanotime()
	l.layerNs[w.ly] += t1 - t0
	l.layerTicks[w.ly]++
	l.at = t1
}

type timedQuiescer struct {
	timedTicker
	q sim.Quiescer
}

func (w *timedQuiescer) Quiescent(now uint64) bool { return w.q.Quiescent(now) }
func (w *timedQuiescer) FastForward(k uint64)      { w.q.FastForward(k) }

type timedSleeper struct {
	timedQuiescer
	s sim.Sleeper
}

func (w *timedSleeper) NextWake(now uint64) (uint64, bool) { return w.s.NextWake(now) }

// probe is an always-quiescent ticker: the kernel never ticks it, but
// calls FastForward(1) on every stepped cycle and FastForward(k) once
// per coast of k cycles, in its registration slot. It is not a Sleeper,
// so it never bounds a coast.
type probe struct {
	l     *ledger
	first bool
}

func (p *probe) Tick(uint64)           {}
func (p *probe) Quiescent(uint64) bool { return true }

func (p *probe) FastForward(k uint64) {
	l := p.l
	t := nanotime()
	if !p.first {
		l.probeNs += t - l.at
		l.at = t
		return
	}
	l.selfNs += t - l.at
	if k == 1 {
		l.stepped++
	} else {
		l.coasted += k
	}
	if l.sinceSample++; l.sinceSample >= sampleEvery {
		l.sinceSample = 0
		q := 0
		for i := 0; i < l.net.Nodes(); i++ {
			q += l.net.NI(topology.NodeID(i)).QueuedFlits()
		}
		if q > l.queuedPeak {
			l.queuedPeak = q
		}
		t2 := nanotime()
		l.probeNs += t2 - t
		t = t2
	}
	l.at = t
}
