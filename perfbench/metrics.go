package main

import (
	"sort"

	"afcnet/internal/network"
)

const mb = 1 << 20

// median returns the median of vs (0 when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// series collects one value per round for each metric; the reported
// value is the median over the rounds.
type series struct {
	units  map[string]string
	values map[string][]float64
}

func newSeries() *series {
	return &series{units: map[string]string{}, values: map[string][]float64{}}
}

func (s *series) add(name, unit string, v float64) {
	s.units[name] = unit
	s.values[name] = append(s.values[name], v)
}

func (s *series) medians() map[string]metric {
	out := make(map[string]metric, len(s.values))
	for n, vs := range s.values {
		out[n] = metric{Value: median(vs), Unit: s.units[n]}
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never
// reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// e2eMetrics are the end-to-end metrics: medians over measured rounds.
func e2eMetrics(rounds []*round) map[string]metric {
	s := newSeries()
	for _, r := range rounds {
		var setup, rc, flits float64
		kindNs := map[network.Kind]float64{}
		kindRC := map[network.Kind]float64{}
		for i := range r.cells {
			c := &r.cells[i]
			setup += float64(c.setup.total())
			rc += c.routerCycles()
			flits += float64(c.flits)
			kindNs[c.spec.kind] += float64(c.runNs)
			kindRC[c.spec.kind] += c.routerCycles()
		}
		wall := float64(r.wallNs)
		s.add("wall_s", "s", wall/1e9)
		s.add("setup_s", "s", setup/1e9)
		s.add("ns_per_router_cycle", "ns", wall/rc)
		for _, k := range e2eKinds {
			s.add("ns_per_router_cycle."+k.String(), "ns", ratio(kindNs[k], kindRC[k]))
		}
		s.add("sim_flits_per_s", "1/s", flits/(wall/1e9))
		s.add("heap_peak_mb", "MiB", float64(r.heapLiveBytes)/mb)
		s.add("alloc_mb", "MiB", float64(r.allocBytes)/mb)
		s.add("cells", "count", float64(len(r.cells)))
	}
	return s.medians()
}

// layerMetrics are the per-layer metrics: one value per (untraced,
// traced) round pair, the layer counters read from the traced round.
func layerMetrics(pairs [][2]*round) map[string]metric {
	s := newSeries()
	for _, p := range pairs {
		plain, r := p[0], p[1]
		var (
			busy, tailIdle, cellS               []float64
			newNs, resetNs, cmpNs, trafNs, engN float64
			news, resets                        float64
			cycles, stepped, coasted            float64
			span, self, probe, unattributed     float64
			layerNs                             [numLayers]float64
			trafNodeCycles, cmpCycles           float64
			tx, wbs, engTicks                   float64
			queuedPeak, blocks, live            float64
			bufCycles, modeCycles, switches     float64
			gossip, defl, deflFlits             float64
			drops, dropCreated                  float64
			phaseA, phaseB, dispatch, bCycles   float64
			busyMax, busyMean                   float64
		)
		selfNs := map[network.Kind]float64{}
		kindRC := map[network.Kind]float64{}
		for g := range r.busyNs {
			busy = append(busy, float64(r.busyNs[g]))
			tailIdle = append(tailIdle, float64(r.tailIdleNs[g]))
		}
		for i := range r.cells {
			c := &r.cells[i]
			l := c.trace
			cellS = append(cellS, float64(c.setup.total()+c.runNs)/1e9)
			newNs += float64(c.setup.newNs)
			resetNs += float64(c.setup.resetNs)
			cmpNs += float64(c.setup.cmpNs)
			trafNs += float64(c.setup.trafficNs)
			engN += float64(c.setup.engineNs)
			news += float64(c.setup.news)
			resets += float64(c.setup.resets)
			cycles += float64(c.cycles)
			stepped += float64(l.stepped)
			coasted += float64(l.coasted)
			span += float64(l.spanNs)
			self += float64(l.selfNs)
			probe += float64(l.probeNs)
			unattributed += float64(l.unattributed)
			for ly := range layerNs {
				layerNs[ly] += float64(l.layerNs[ly])
			}
			selfNs[c.spec.kind] += float64(l.selfNs)
			kindRC[c.spec.kind] += c.routerCycles()
			engTicks += float64(l.layerTicks[layerScenario])
			o := &c.out
			if c.spec.bench != nil {
				cmpCycles += float64(c.cycles)
				tx += float64(o.tx)
				wbs += float64(o.writebacks)
			} else {
				trafNodeCycles += c.routerCycles()
			}
			queuedPeak = max(queuedPeak, float64(l.queuedPeak))
			blocks = max(blocks, float64(o.arenaBlocks))
			if c.spec.open != nil {
				live += float64(o.live)
			}
			switch c.spec.kind {
			case network.AFC:
				m := o.mode
				bufCycles += float64(m.BufferedCycles)
				modeCycles += float64(m.BlessCycles + m.SwitchingCycles + m.BufferedCycles)
				switches += float64(m.ForwardSwitches + m.ReverseSwitches)
				gossip += float64(m.GossipSwitches)
			case network.Bless, network.BlessDrop:
				defl += float64(o.deflections)
				deflFlits += float64(c.flits)
				if c.spec.kind == network.BlessDrop {
					drops += float64(o.dropped)
					dropCreated += float64(o.created)
				}
			}
			if bt, b0 := l.barrier, l.barrier0; len(bt.ShardBusyNs) > 0 {
				bCycles += float64(bt.Cycles - b0.Cycles)
				phaseA += float64(bt.PhaseANs - b0.PhaseANs)
				phaseB += float64(bt.PhaseBNs - b0.PhaseBNs)
				var mx, sum float64
				for sh, v := range bt.ShardBusyNs {
					d := float64(v)
					if sh < len(b0.ShardBusyNs) {
						d -= float64(b0.ShardBusyNs[sh])
					}
					mx = max(mx, d)
					sum += d
				}
				dispatch += float64(bt.PhaseANs-b0.PhaseANs) - mx
				busyMax += mx
				busyMean += sum / float64(len(bt.ShardBusyNs))
			}
		}

		var sumBusy, sumTail float64
		for i := range busy {
			sumBusy += busy[i]
			sumTail += tailIdle[i]
		}
		s.add("runner.busy_frac", "ratio", ratio(sumBusy, float64(len(busy))*float64(r.elapsedNs)))
		s.add("runner.tail_idle_s", "s", sumTail/1e9)
		s.add("runner.cell_s_p50", "s", median(cellS))
		s.add("runner.cell_s_max", "s", maxOf(cellS))

		s.add("network.new_s", "s", newNs/1e9)
		s.add("network.reset_s", "s", resetNs/1e9)
		s.add("network.reuse_frac", "ratio", ratio(resets, news+resets))
		s.add("cmp.attach_s", "s", cmpNs/1e9)
		s.add("traffic.attach_s", "s", trafNs/1e9)
		s.add("scenario.engine_new_s", "s", engN/1e9)

		s.add("sim.cycles", "count", cycles)
		s.add("sim.coasted_frac", "ratio", ratio(coasted, stepped+coasted))

		for k := network.Kind(0); k < network.NumKinds; k++ {
			s.add("network.self_ns_per_router_cycle."+k.String(), "ns", ratio(selfNs[k], kindRC[k]))
		}
		s.add("network.self_share", "ratio", ratio(self, span))

		s.add("shard.phase_a_ns_per_cycle", "ns", ratio(phaseA, bCycles))
		s.add("shard.phase_b_ns_per_cycle", "ns", ratio(phaseB, bCycles))
		s.add("shard.dispatch_ns_per_cycle", "ns", ratio(dispatch, bCycles))
		s.add("shard.busy_imbalance", "ratio", ratio(busyMax, busyMean))
		var serialNs, shardedNs float64
		for i := range r.serial {
			serialNs += float64(r.serial[i].runNs)
			shardedNs += float64(plain.cells[i].runNs)
		}
		s.add("shard.speedup", "ratio", ratio(serialNs, shardedNs))

		s.add("traffic.tick_ns_per_node_cycle", "ns", ratio(layerNs[layerTraffic], trafNodeCycles))
		s.add("traffic.share", "ratio", ratio(layerNs[layerTraffic], span))
		s.add("cmp.tick_ns_per_cycle", "ns", ratio(layerNs[layerCMP], cmpCycles))
		s.add("cmp.share", "ratio", ratio(layerNs[layerCMP], span))
		s.add("cmp.tx", "count", tx)
		s.add("cmp.writebacks", "count", wbs)
		s.add("scenario.tick_s", "s", layerNs[layerScenario]/1e9)
		s.add("scenario.events", "count", engTicks)

		s.add("ni.queued_flits_peak", "count", queuedPeak)
		s.add("go.gc_cycles", "count", float64(r.gcCycles))
		s.add("go.gc_pause_s", "s", float64(r.gcPauseNs)/1e9)
		s.add("flit.arena_blocks", "count", blocks)
		s.add("flit.live_after_drain", "count", live)

		s.add("core.buffered_frac", "ratio", ratio(bufCycles, modeCycles))
		s.add("core.mode_switches", "count", switches)
		s.add("core.gossip_switches", "count", gossip)
		s.add("deflect.deflections_per_flit", "ratio", ratio(defl, deflFlits))
		s.add("deflect.drops_per_packet", "ratio", ratio(drops, dropCreated))

		s.add("trace.overhead_ratio", "ratio", ratio(float64(r.wallNs), float64(plain.wallNs)))
		s.add("trace.unattributed_frac", "ratio", ratio(unattributed, span))
		s.add("trace.probe_share", "ratio", ratio(probe, span))
	}
	return s.medians()
}

func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		m = max(m, v)
	}
	return m
}
