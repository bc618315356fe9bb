package main

import (
	"fmt"

	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/experiments"
	"afcnet/internal/network"
	"afcnet/internal/scenario"
	"afcnet/internal/topology"
)

// A workload is the cells of one round, run on parallelism workers.
// The round's seed is every cell's network seed.
type workload struct {
	name        string
	parallelism int
	shards      int // Shards of every cell's network; <= 1 is serial
	cells       []cellSpec
}

// cellSpec is one operation: a (workload, kind, seed[, bench]) run, the
// seed supplied by the round. Exactly one of bench, open and spec is
// set.
type cellSpec struct {
	name string
	kind network.Kind
	sys  config.System
	// last marks the round's last cell of its kind: its worker samples
	// the live heap and then releases the kind's stack.
	last  bool
	bench *closedLoop
	open  *openLoop
	spec  *scenario.Spec
}

// closedLoop is a closed-loop CMP cell measured with cmp.System.Measure.
type closedLoop struct {
	params              cmp.Params
	warmupTx, measureTx uint64
}

// openLoop is an open-loop Bernoulli cell: warm up, measure, then stop
// the sources and drain every flit.
type openLoop struct {
	rate           float64
	warmup, window uint64
	drainLimit     uint64
}

// size scales a workload's run lengths; full is the benchmark's size,
// smoke the tests' size.
type size struct {
	warmupTx, measureTx  uint64 // closed-loop transactions
	meshWarmup, meshRun  uint64 // mesh32 cycles
	scenarioPhase        uint64 // cycles per scenario phase
	scenarioMesh, meshXY int
}

var (
	full  = size{warmupTx: 2000, measureTx: 6000, meshWarmup: 600, meshRun: 1200, scenarioPhase: 400, scenarioMesh: 16, meshXY: 32}
	smoke = size{warmupTx: 100, measureTx: 300, meshWarmup: 100, meshRun: 200, scenarioPhase: 60, scenarioMesh: 8, meshXY: 8}
)

// closedLoopCycleLimit matches experiments.Default: a cell past it failed.
var closedLoopCycleLimit = experiments.Default().CycleLimit

// meshRate is the mesh32 offered load in flits/node/cycle: below the
// saturation point of every kind the workload runs.
const meshRate = 0.03

// e2eKinds are the kinds every workload runs; each gets its own
// ns_per_router_cycle.<kind> end-to-end metric.
var e2eKinds = []network.Kind{network.Backpressured, network.Bless, network.AFC, network.AFCAlwaysBuffered}

// scenarioKinds are the five timing-distinct kinds (ideal bypass times
// exactly like backpressured).
var scenarioKinds = []network.Kind{network.Backpressured, network.Bless, network.BlessDrop, network.AFC, network.AFCAlwaysBuffered}

var workloadNames = []string{"paper-closed-3x3", "mesh32-uniform", "scenario-16x16-faults"}

// newWorkload builds the named workload at size sz.
func newWorkload(name string, sz size) (*workload, bool) {
	var w *workload
	switch name {
	case "paper-closed-3x3":
		w = paperClosed(sz)
	case "mesh32-uniform":
		w = meshUniform(sz)
	case "scenario-16x16-faults":
		w = scenarioFaults(sz)
	default:
		return nil, false
	}
	seen := map[network.Kind]bool{}
	for i := len(w.cells) - 1; i >= 0; i-- {
		c := &w.cells[i]
		c.last = !seen[c.kind]
		seen[c.kind] = true
	}
	return w, true
}

// paperClosed is the Fig. 2/3 closed-loop matrix in the cell order of
// experiments.ClosedLoop: per preset, the backpressured baseline first,
// then the other Fig2EnergyKinds.
func paperClosed(sz size) *workload {
	w := &workload{name: "paper-closed-3x3", parallelism: 2}
	for _, p := range cmp.AllBenchmarks() {
		cl := &closedLoop{params: p, warmupTx: sz.warmupTx, measureTx: sz.measureTx}
		kinds := []network.Kind{network.Backpressured}
		for _, k := range experiments.Fig2EnergyKinds {
			if k != network.Backpressured {
				kinds = append(kinds, k)
			}
		}
		for _, k := range kinds {
			w.cells = append(w.cells, cellSpec{
				name: p.Name + "/" + k.String(), kind: k,
				sys: config.Default(), bench: cl,
			})
		}
	}
	return w
}

func meshUniform(sz size) *workload {
	w := &workload{name: "mesh32-uniform", parallelism: 1, shards: 2}
	sys := config.DefaultWithMesh(topology.NewMesh(sz.meshXY, sz.meshXY))
	ol := &openLoop{rate: meshRate, warmup: sz.meshWarmup, window: sz.meshRun, drainLimit: 100_000}
	for _, k := range e2eKinds {
		w.cells = append(w.cells, cellSpec{name: "uniform/" + k.String(), kind: k, sys: sys, open: ol})
	}
	return w
}

func scenarioFaults(sz size) *workload {
	w := &workload{name: "scenario-16x16-faults", parallelism: 1}
	mesh := topology.NewMesh(sz.scenarioMesh, sz.scenarioMesh)
	spec := faultSpec(mesh, sz.scenarioPhase)
	for _, k := range scenarioKinds {
		w.cells = append(w.cells, cellSpec{
			name: "faults/" + k.String(), kind: k,
			sys: config.DefaultWithMesh(mesh), spec: spec,
		})
	}
	return w
}

// faultSpec is the scenario timeline, one phase of the given length per
// step: sub-saturation, a ramp past saturation, a hotspot move, a dead
// link plus a dead router plus a throttle, a bursty phase and a
// cool-down. Node choices are relative to the mesh so the smoke size
// keeps every mechanism.
func faultSpec(m topology.Mesh, phase uint64) *scenario.Spec {
	rate := func(r float64) *float64 { return &r }
	n := func(x, y int) int { return y*m.Width + x }
	w, h := m.Width, m.Height
	hot1 := n(w/4, h/4)
	hot2 := n(3*w/4, 3*h/4)
	return &scenario.Spec{
		Name:     "faults",
		Duration: 7 * phase,
		Rate:     0.05,
		Events: []scenario.Event{
			{At: phase, Label: "ramp", Rate: rate(0.12)},
			{At: 2 * phase, Label: "saturate", Rate: rate(0.30)},
			{At: 3 * phase, Label: "hotspot-move", Rate: rate(0.08), Pattern: hotspot(hot1)},
			{At: 4 * phase, Label: "faults", Pattern: hotspot(hot2),
				DeadLinks:   []scenario.LinkRef{{Node: n(w/2, h/2), Dir: "E"}},
				DeadRouters: []int{n(w/2-2, h/2+1)},
				Throttles:   &[]scenario.Throttle{{Node: n(w/2+1, h/2-2), Dir: "S", Period: 16, On: 8}}},
			{At: 5 * phase, Label: "bursty", Pattern: "uniform", Rate: rate(0.15),
				Burst: &scenario.Burst{Period: 60, On: 20}},
			{At: 6 * phase, Label: "cool-down", Rate: rate(0.02), Burst: &scenario.Burst{}},
		},
	}
}

func hotspot(node int) string { return fmt.Sprintf("hotspot:%d:0.3", node) }
