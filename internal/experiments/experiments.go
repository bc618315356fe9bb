// Package experiments implements the paper's evaluation: one harness per
// table/figure (see DESIGN.md's per-experiment index). cmd/figures and the
// repository's benchmarks both call into this package, so the printed
// rows and the bench-regenerated rows are the same code path.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"afcnet/internal/check"
	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/energy"
	"afcnet/internal/network"
	"afcnet/internal/obs"
	"afcnet/internal/runner"
	"afcnet/internal/stats"
	"afcnet/internal/traffic"
)

// Options controls run length and repetition.
type Options struct {
	// Seeds: one full run per seed; means and standard deviations across
	// seeds reproduce the paper's variance bars.
	Seeds []int64
	// WarmupTx / MeasureTx: closed-loop transactions before/inside the
	// measurement window.
	WarmupTx, MeasureTx uint64
	// CycleLimit aborts runaway runs.
	CycleLimit uint64
	// OpenLoopWarmup / OpenLoopMeasure: cycles for open-loop windows.
	OpenLoopWarmup, OpenLoopMeasure uint64
	// Parallelism is the worker count the harnesses fan their
	// (bench, kind, seed) cells across; <= 0 selects GOMAXPROCS.
	// Parallelism == 1 reproduces the historical serial execution exactly;
	// any value produces bit-for-bit identical results (each cell owns its
	// network and random substreams, and cells are merged in index order).
	Parallelism int
	// Check attaches an invariant checker (internal/check) to every
	// network the harnesses build. A violation panics inside the cell;
	// the worker pool surfaces it as that cell's error. The checker
	// only observes, so checked results are bit-for-bit identical to
	// unchecked ones — it just costs wall clock, hence off by default.
	Check bool
	// Obs, if non-nil, observes the run (internal/obs): per-cell
	// timings and batch progress flow to it through the runner
	// callbacks, and every network a harness builds gets a read-only
	// counter sampler when metrics are enabled. Like Check, it is
	// purely observational — results are bit-for-bit identical with or
	// without it.
	Obs *obs.Observer
	// Dense builds every network with the dense reference kernel
	// (network.Config.DenseKernel): every ticker runs every cycle instead
	// of active-set scheduling. Results are bit-for-bit identical either
	// way; the flag exists for equivalence tests and benchmark baselines.
	Dense bool
	// NoPool builds every network without the flit arena
	// (network.Config.NoPool): every packetization heap-allocates, as the
	// original reference path did. Results are bit-for-bit identical
	// either way; the flag exists for equivalence tests and allocation
	// baselines.
	NoPool bool
	// System overrides the machine configuration (mesh size, buffer
	// depths, …) for every network the harnesses build; the zero value
	// keeps config.Default(). A cell that sets its own System wins.
	System config.System
	// Shards builds every network with the sharded tick
	// (network.Config.Shards): each cycle's router bank splits across a
	// persistent worker group with a deterministic two-phase barrier.
	// Results match the serial kernel for any shard count; <= 1 keeps
	// the serial reference path.
	Shards int
}

// newNetwork builds one cell's network, attaching an invariant checker
// when opt.Check is set and a counter sampler when opt.Obs collects
// metrics. Each cell owns its attachments, so observed runs parallelize
// exactly like plain ones.
func (o Options) newNetwork(cfg network.Config) *network.Network {
	if cfg.System.Mesh.Width == 0 {
		cfg.System = o.System
	}
	cfg.DenseKernel = cfg.DenseKernel || o.Dense
	cfg.NoPool = cfg.NoPool || o.NoPool
	if cfg.Shards <= 1 {
		cfg.Shards = o.Shards
	}
	net := network.New(cfg)
	if o.Check {
		check.Attach(net)
	}
	o.Obs.Sample(net)
	o.Obs.ObserveBarrier(net)
	return net
}

// workerEnt is one worker's reusable simulation stack for one network
// kind: the network plus whichever traffic layer the harness attached.
// Consecutive cells of the same kind on the same worker rewind and reuse
// it instead of rebuilding, which is what makes the steady-state loop
// allocation-free across a sweep.
type workerEnt struct {
	net *network.Network
	sys *cmp.System
	gen *traffic.Generator
}

// workerState is the per-worker context of one harness batch: the
// reusable networks keyed by kind, and scratch the cells would otherwise
// reallocate. Each runner worker owns exactly one, so nothing here is
// synchronized.
type workerState struct {
	opt   Options
	ents  map[network.Kind]*workerEnt
	rates []float64 // per-node offered-rate scratch (Quadrant)
}

// workerStates returns one fresh workerState per pool worker.
func (o Options) workerStates(workers int) []*workerState {
	ws := make([]*workerState, workers)
	for i := range ws {
		ws[i] = &workerState{opt: o, ents: make(map[network.Kind]*workerEnt)}
	}
	return ws
}

// oneShot returns a workerState that will never see a second cell of the
// same kind — the harnesses that mix per-cell configurations (ablations)
// use it to share the cell code without the reuse path.
func (o Options) oneShot() *workerState {
	return &workerState{opt: o, ents: make(map[network.Kind]*workerEnt)}
}

// acquire returns a ready network for cfg: the worker's previous network
// of the same kind rewound in place when the configuration allows (same
// everything but Seed), a fresh build otherwise. Checker and sampler are
// attached in the same order as newNetwork, so the kernel's ticker list
// and the seed source's stream numbering are identical on both paths. A
// rebuilt entry has nil sys/gen — the caller's cue to construct its
// traffic layer instead of reattaching it.
func (w *workerState) acquire(cfg network.Config) *workerEnt {
	if cfg.System.Mesh.Width == 0 {
		cfg.System = w.opt.System
	}
	cfg.DenseKernel = cfg.DenseKernel || w.opt.Dense
	cfg.NoPool = cfg.NoPool || w.opt.NoPool
	if cfg.Shards <= 1 {
		cfg.Shards = w.opt.Shards
	}
	e := w.ents[cfg.Kind]
	if e == nil || !e.net.Reset(cfg) {
		e = &workerEnt{net: network.New(cfg)}
		w.ents[cfg.Kind] = e
	}
	if w.opt.Check {
		check.Attach(e.net)
	}
	w.opt.Obs.Sample(e.net)
	w.opt.Obs.ObserveBarrier(e.net)
	return e
}

// runCell runs one (bench, kind, seed) closed-loop measurement on this
// worker, reusing its network and CMP substrate when possible.
func (w *workerState) runCell(p cmp.Params, kind network.Kind, seed int64) (cmp.RunResult, *network.Network, error) {
	e := w.acquire(network.Config{Kind: kind, Seed: seed, MeterEnergy: true})
	if e.sys == nil {
		e.sys = cmp.NewSystem(e.net, p, e.net.RandStream)
	} else {
		e.sys.Reattach(p)
	}
	res, ok := e.sys.Measure(w.opt.WarmupTx, w.opt.MeasureTx, w.opt.CycleLimit)
	if !ok {
		return res, e.net, fmt.Errorf("experiments: %s on %s exceeded %d cycles",
			p.Name, kind, w.opt.CycleLimit)
	}
	return res, e.net, nil
}

// pool returns the runner options shared by every harness.
func (o Options) pool() runner.Options {
	ro := runner.Options{Parallelism: o.Parallelism}
	o.Obs.Hook(&ro)
	return ro
}

// Default returns the options used for the recorded results in
// EXPERIMENTS.md.
func Default() Options {
	return Options{
		Seeds:           []int64{1, 2, 3},
		WarmupTx:        2000,
		MeasureTx:       6000,
		CycleLimit:      30_000_000,
		OpenLoopWarmup:  10_000,
		OpenLoopMeasure: 30_000,
	}
}

// Quick returns reduced options for fast regression benches.
func Quick() Options {
	return Options{
		Seeds:           []int64{1},
		WarmupTx:        800,
		MeasureTx:       2500,
		CycleLimit:      10_000_000,
		OpenLoopWarmup:  4_000,
		OpenLoopMeasure: 10_000,
	}
}

// Fig2Kinds are the configurations compared in Figure 2, baseline first
// (normalization target).
var Fig2Kinds = []network.Kind{
	network.Backpressured,
	network.Bless,
	network.AFCAlwaysBuffered,
	network.AFC,
}

// Fig2EnergyKinds adds the ideal-bypass energy bound (shown only on the
// low-load energy graph in the paper).
var Fig2EnergyKinds = append([]network.Kind{network.BackpressuredIdealBypass}, Fig2Kinds...)

// Measurement is one closed-loop (bench, kind) cell aggregated over seeds.
type Measurement struct {
	Bench string
	Kind  network.Kind

	// Perf is performance normalized to the backpressured baseline
	// (transactions/cycle ratio; higher is better). Figure 2(a)/(c).
	Perf, PerfStd float64
	// Energy is network energy normalized to the baseline (lower is
	// better). Figure 2(b)/(d).
	Energy, EnergyStd float64

	// Breakdown components normalized to the baseline's total energy
	// (Figure 3): buffer, link, rest-of-router.
	BufferE, LinkE, RestE float64

	// Raw measurements (seed-averaged).
	TxPerCycle    float64
	InjectionRate float64
	NetLatency    float64

	// AFC mode statistics (zero for non-AFC kinds).
	BufferedFraction float64
	GossipSwitches   float64
	EscapeEvents     float64
}

// runCell runs one (bench, kind, seed) closed-loop measurement on a
// fresh network (the no-reuse path the ablations use).
func runCell(p cmp.Params, kind network.Kind, seed int64, opt Options) (cmp.RunResult, *network.Network, error) {
	return opt.oneShot().runCell(p, kind, seed)
}

// closedOut is the state a closed-loop cell hands back to the merge step:
// everything the aggregation reads, so the network itself need not be
// retained.
type closedOut struct {
	res    cmp.RunResult
	energy energy.Breakdown
	mode   network.ModeStats
}

func (w *workerState) runClosedCell(p cmp.Params, kind network.Kind, seed int64) (closedOut, error) {
	res, net, err := w.runCell(p, kind, seed)
	if err != nil {
		return closedOut{}, err
	}
	return closedOut{res: res, energy: net.TotalEnergy(), mode: net.ModeStats()}, nil
}

// ClosedLoop runs the Figure 2/3 measurement for the given benchmarks and
// kinds. The backpressured baseline is always run (it is the
// normalization target) even if absent from kinds. The (bench, kind,
// seed) cells execute on opt.Parallelism workers; each cell owns its
// network and random substreams, and cells are merged in the serial
// iteration order, so results are identical at any parallelism.
func ClosedLoop(benches []cmp.Params, kinds []network.Kind, opt Options) ([]Measurement, error) {
	type cellKey struct {
		bench, seed int
		kind        network.Kind
	}
	var cells []cellKey
	idx := make(map[cellKey]int)
	add := func(c cellKey) {
		idx[c] = len(cells)
		cells = append(cells, c)
	}
	for bi := range benches {
		for si := range opt.Seeds {
			// One baseline cell per (bench, seed); non-baseline kinds get
			// their own cells. A Backpressured entry in kinds reuses the
			// baseline cell (the serial loop re-ran and discarded it).
			add(cellKey{bi, si, network.Backpressured})
			for _, k := range kinds {
				if k != network.Backpressured {
					add(cellKey{bi, si, k})
				}
			}
		}
	}
	ro := opt.pool()
	ws := opt.workerStates(ro.Workers(len(cells)))
	outs, err := runner.MapWorkers(len(cells), ro, func(worker, i int) (closedOut, error) {
		c := cells[i]
		return ws[worker].runClosedCell(benches[c.bench], c.kind, opt.Seeds[c.seed])
	})
	if err != nil {
		return nil, err
	}

	var out []Measurement
	for bi, p := range benches {
		agg := make(map[network.Kind]*cellAgg, len(kinds))
		for _, k := range kinds {
			agg[k] = &cellAgg{}
		}
		for si := range opt.Seeds {
			base := outs[idx[cellKey{bi, si, network.Backpressured}]]
			baseEnergy := base.energy.Total()
			for _, k := range kinds {
				co := base
				if k != network.Backpressured {
					co = outs[idx[cellKey{bi, si, k}]]
				}
				e := co.energy
				ms := co.mode
				a := agg[k]
				a.perf.Add(co.res.TransactionsPerCycle / base.res.TransactionsPerCycle)
				a.energy.Add(e.Total() / baseEnergy)
				a.bufferE.Add(e.Buffer() / baseEnergy)
				a.linkE.Add(e.Link / baseEnergy)
				a.restE.Add(e.Rest() / baseEnergy)
				a.tx.Add(co.res.TransactionsPerCycle)
				a.inj.Add(co.res.InjectionRate)
				a.lat.Add(co.res.MeanNetLatency)
				a.bufFrac.Add(ms.BufferedFraction())
				a.gossip.Add(float64(ms.GossipSwitches))
				a.escape.Add(float64(ms.EscapeEvents))
			}
		}
		for _, k := range kinds {
			a := agg[k]
			out = append(out, Measurement{
				Bench: p.Name, Kind: k,
				Perf: a.perf.Mean(), PerfStd: a.perf.StdDev(),
				Energy: a.energy.Mean(), EnergyStd: a.energy.StdDev(),
				BufferE: a.bufferE.Mean(), LinkE: a.linkE.Mean(), RestE: a.restE.Mean(),
				TxPerCycle: a.tx.Mean(), InjectionRate: a.inj.Mean(), NetLatency: a.lat.Mean(),
				BufferedFraction: a.bufFrac.Mean(),
				GossipSwitches:   a.gossip.Mean(),
				EscapeEvents:     a.escape.Mean(),
			})
		}
	}
	return out, nil
}

type cellAgg struct {
	perf, energy, bufferE, linkE, restE   stats.Running
	tx, inj, lat, bufFrac, gossip, escape stats.Running
}

// GeoMeans appends per-kind geometric-mean rows (bench "geomean") over
// the normalized performance and energy of ms.
func GeoMeans(ms []Measurement) []Measurement {
	byKind := map[network.Kind][]Measurement{}
	var order []network.Kind
	for _, m := range ms {
		if _, ok := byKind[m.Kind]; !ok {
			order = append(order, m.Kind)
		}
		byKind[m.Kind] = append(byKind[m.Kind], m)
	}
	var out []Measurement
	for _, k := range order {
		rows := byKind[k]
		var perfs, energies []float64
		for _, r := range rows {
			perfs = append(perfs, r.Perf)
			energies = append(energies, r.Energy)
		}
		out = append(out, Measurement{
			Bench:  "geomean",
			Kind:   k,
			Perf:   stats.GeoMean(perfs),
			Energy: stats.GeoMean(energies),
		})
	}
	return out
}

// WriteFig2 renders the Figure 2 style table (normalized performance and
// energy, with variance) to w.
func WriteFig2(w io.Writer, title string, ms []Measurement) {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\tkind\tperf(norm)\t±\tenergy(norm)\t±\tinj rate\tnet lat")
	for _, m := range ms {
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.1f\n",
			m.Bench, m.Kind, m.Perf, m.PerfStd, m.Energy, m.EnergyStd,
			m.InjectionRate, m.NetLatency)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// WriteFig3 renders the Figure 3 style energy breakdown (components
// normalized to the backpressured total per benchmark).
func WriteFig3(w io.Writer, title string, ms []Measurement) {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\tkind\tbuffer\tlink\trest\ttotal")
	for _, m := range ms {
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.3f\t%.3f\n",
			m.Bench, m.Kind, m.BufferE, m.LinkE, m.RestE, m.BufferE+m.LinkE+m.RestE)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// WriteDuty renders the AFC mode duty-cycle report (Section V-A text).
func WriteDuty(w io.Writer, ms []Measurement) {
	fmt.Fprintln(w, "AFC mode duty cycle (fraction of router-cycles in backpressured mode)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\tbackpressured-mode\tgossip switches\tescape events")
	for _, m := range ms {
		if m.Kind != network.AFC {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f\t%.1f\n",
			m.Bench, 100*m.BufferedFraction, m.GossipSwitches, m.EscapeEvents)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// Table3Row is a paper-vs-measured injection-rate calibration entry.
type Table3Row struct {
	Bench    string
	Paper    float64
	Measured float64
}

// Table3 measures the achieved injection rate of every workload preset on
// the backpressured baseline (the configuration the paper's Table III
// reports).
func Table3(opt Options) ([]Table3Row, error) {
	benches := cmp.AllBenchmarks()
	ns := len(opt.Seeds)
	ro := opt.pool()
	ws := opt.workerStates(ro.Workers(len(benches) * ns))
	rates, err := runner.MapWorkers(len(benches)*ns, ro, func(worker, i int) (float64, error) {
		res, _, err := ws[worker].runCell(benches[i/ns], network.Backpressured, opt.Seeds[i%ns])
		if err != nil {
			return 0, err
		}
		return res.InjectionRate, nil
	})
	if err != nil {
		return nil, err
	}
	var out []Table3Row
	for bi, p := range benches {
		var r stats.Running
		for si := 0; si < ns; si++ {
			r.Add(rates[bi*ns+si])
		}
		out = append(out, Table3Row{
			Bench:    p.Name,
			Paper:    cmp.PaperInjectionRates[p.Name],
			Measured: r.Mean(),
		})
	}
	return out, nil
}

// WriteTable3 renders the calibration table.
func WriteTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table III: workload injection rates (flits/node/cycle), paper vs. measured")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\tpaper\tmeasured")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.3f\n", r.Bench, r.Paper, r.Measured)
	}
	tw.Flush()
	fmt.Fprintln(w)
}
