package main

import (
	"reflect"
	"testing"

	"afcnet/internal/cmp"
	"afcnet/internal/experiments"
	"afcnet/internal/network"
	"afcnet/internal/scenario"
	"afcnet/internal/sim"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

// ledgerTolerance bounds a traced cell's unattributed share of its run
// span: the time after the last probe of the last cycle.
const ledgerTolerance = 0.02

// TestTracedEqualsUntraced runs every workload at smoke size untraced
// and traced: every cell must pass, its digest must not change under
// tracing, and its ledger must add up to the run span.
func TestTracedEqualsUntraced(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := newWorkload(name, smoke)
		plain := runRound(w, defaultSeed, false)
		traced := runRound(w, defaultSeed, true)
		for i := range plain.cells {
			p, tr := &plain.cells[i], &traced.cells[i]
			if p.err != nil || tr.err != nil {
				t.Fatalf("%s %s: untraced err %v, traced err %v", name, p.spec.name, p.err, tr.err)
			}
			if p.digest != tr.digest {
				t.Errorf("%s %s: traced digest %s, untraced %s", name, p.spec.name, tr.digest, p.digest)
			}
			l := tr.trace
			if got := l.attributed() + l.unattributed; got != l.spanNs {
				t.Errorf("%s %s: ledger sums to %d ns of a %d ns span", name, p.spec.name, got, l.spanNs)
			}
			if f := float64(l.unattributed) / float64(l.spanNs); f > ledgerTolerance {
				t.Errorf("%s %s: %.3f of the span unattributed, want <= %.2f", name, p.spec.name, f, ledgerTolerance)
			}
			if l.stepped+l.coasted != tr.cycles {
				t.Errorf("%s %s: probe saw %d+%d cycles of %d", name, p.spec.name, l.stepped, l.coasted, tr.cycles)
			}
		}
		for i := range traced.serial {
			if s := &traced.serial[i]; s.err != nil || s.digest != plain.cells[i].digest {
				t.Errorf("%s %s: serial rerun digest %s (err %v), sharded %s", name, s.spec.name, s.digest, s.err, plain.cells[i].digest)
			}
		}
		if w.shards > 1 && len(traced.serial) != len(w.cells) {
			t.Errorf("%s: %d serial reruns for %d cells", name, len(traced.serial), len(w.cells))
		}
	}
}

// TestWrapperKeepsCapabilities checks that a timing wrapper implements
// exactly the wrapped ticker's sim.Quiescer/sim.Sleeper set, so the
// kernel schedules and coasts it as it would the ticker itself.
func TestWrapperKeepsCapabilities(t *testing.T) {
	net := network.New(network.Config{Kind: network.AFC, Seed: 1})
	defer net.Close()
	gen := traffic.NewGenerator(net, traffic.Config{Rate: 0.1}, net.RandStream)
	spec := &scenario.Spec{Duration: 100, Rate: 0.1}
	tickers := map[string]sim.Ticker{
		"generator": gen,
		"cmp":       cmp.NewSystem(net, cmp.Water(), net.RandStream),
		"engine":    scenario.NewEngine(net, gen, spec),
		"func":      sim.TickFunc(func(uint64) {}),
	}
	l := &ledger{}
	for name, tk := range tickers {
		wr := l.wrap(tk, layerTraffic)
		_, q := tk.(sim.Quiescer)
		_, wq := wr.(sim.Quiescer)
		_, s := tk.(sim.Sleeper)
		_, ws := wr.(sim.Sleeper)
		if q != wq || s != ws {
			t.Errorf("%s: wrapped (Quiescer %v, Sleeper %v), wrapper (%v, %v)", name, q, s, wq, ws)
		}
	}
}

// TestCellsMatchExperiments pins the benchmark's own cell code to the
// experiments harnesses it mirrors: the same cells give the same
// results through experiments.ClosedLoop, LatencySweep and Scenario.
func TestCellsMatchExperiments(t *testing.T) {
	opt := experiments.Options{Seeds: []int64{defaultSeed}, Parallelism: 1,
		WarmupTx: smoke.warmupTx, MeasureTx: smoke.measureTx, CycleLimit: closedLoopCycleLimit}

	paper, _ := newWorkload("paper-closed-3x3", smoke)
	r := runRound(paper, defaultSeed, false)
	ms, err := experiments.ClosedLoop(cmp.AllBenchmarks(), experiments.Fig2EnergyKinds, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		c := findCell(t, r, m.Bench+"/"+m.Kind.String())
		o := c.out
		got := [4]float64{o.closed.TransactionsPerCycle, o.closed.InjectionRate, o.closed.MeanNetLatency, o.mode.BufferedFraction()}
		want := [4]float64{m.TxPerCycle, m.InjectionRate, m.NetLatency, m.BufferedFraction}
		if got != want {
			t.Errorf("%s: benchmark %v, ClosedLoop %v", c.spec.name, got, want)
		}
	}

	mesh, _ := newWorkload("mesh32-uniform", smoke)
	r = runRound(mesh, defaultSeed, false)
	ol := opt
	ol.OpenLoopWarmup, ol.OpenLoopMeasure = smoke.meshWarmup, smoke.meshRun
	ol.System = mesh.cells[0].sys
	ol.Shards = mesh.shards
	for _, p := range experiments.LatencySweep(e2eKinds, []float64{meshRate}, ol) {
		c := findCell(t, r, "uniform/"+p.Kind.String())
		if got := [2]float64{c.out.window.totalLat, c.out.window.accepted}; got != [2]float64{p.Latency, p.Throughput} {
			t.Errorf("%s: benchmark %v, LatencySweep %v", c.spec.name, got, [2]float64{p.Latency, p.Throughput})
		}
	}

	sc, _ := newWorkload("scenario-16x16-faults", smoke)
	r = runRound(sc, defaultSeed, false)
	so := opt
	so.System = sc.cells[0].sys
	rs, err := experiments.Scenario(scenarioKinds, sc.cells[0].spec, so)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range rs {
		c := findCell(t, r, "faults/"+x.Kind.String())
		if !reflect.DeepEqual(c.out.phases, x.Phases) || c.out.created != x.Created || c.out.dropped != x.Dropped {
			t.Errorf("%s: benchmark phases/created/dropped differ from experiments.Scenario", c.spec.name)
		}
	}
}

func findCell(t *testing.T, r *round, name string) *cellResult {
	t.Helper()
	for i := range r.cells {
		if r.cells[i].spec.name == name {
			if r.cells[i].err != nil {
				t.Fatal(r.cells[i].err)
			}
			return &r.cells[i]
		}
	}
	t.Fatalf("no cell %s", name)
	return nil
}

// TestPinnedTableCoversEveryCell: every full-size cell has a pinned
// digest, so a run at the default seed checks all of them.
func TestPinnedTableCoversEveryCell(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := newWorkload(name, full)
		p := pinned(name, defaultSeed)
		if len(p) != len(w.cells) {
			t.Errorf("%s: %d pinned digests for %d cells", name, len(p), len(w.cells))
		}
		for _, c := range w.cells {
			if p[c.name] == "" {
				t.Errorf("%s: no pinned digest for %s", name, c.name)
			}
		}
	}
}

// The scenario spec must keep every mechanism at both sizes: each
// event validates on its mesh.
func TestFaultSpecValid(t *testing.T) {
	for _, sz := range []size{full, smoke} {
		m := topology.NewMesh(sz.scenarioMesh, sz.scenarioMesh)
		if err := faultSpec(m, sz.scenarioPhase).ValidateFor(m); err != nil {
			t.Errorf("%dx%d: %v", m.Width, m.Height, err)
		}
	}
}
