// Command afcsim runs closed-loop workloads on network configurations and
// prints performance, energy, injection-rate and AFC mode statistics.
//
// Usage:
//
//	afcsim [-kind afc] [-bench apache] [-seed 1] [-warmup 2000] [-tx 6000]
//	afcsim -bench all -kind all          # full cross product
//
// The bench × kind matrix runs on a worker pool sized by -parallel (or
// AFCSIM_PARALLEL; default all CPUs); each run buffers its report and the
// rows print in matrix order, so output and results are identical to a
// serial run. Trace recording (-record) forces serial execution because
// every run writes the same trace file.
//
// -scenario runs a JSON scenario spec (internal/scenario) instead of a
// closed-loop workload: open-loop traffic whose rate, pattern, bursting,
// link throttling and fault state change at scheduled cycles, reported
// as per-phase completion-time percentiles.
//
// -check (or AFCSIM_CHECK=1) attaches the internal/check invariant
// checker to every network; results are identical, runs are slower, and
// any violation aborts with a diagnostic.
//
// Observability (internal/obs, all off by default and bit-for-bit
// invisible to results): -manifest writes a JSON run record (config,
// per-cell wall times, worker utilization), -progress (or
// AFCSIM_PROGRESS=1) prints a live stderr progress line,
// -cpuprofile/-memprofile write pprof profiles, and -debug-addr serves
// net/http/pprof plus the simulator's counters as expvars.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"afcnet/internal/cli"
	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/experiments"
	"afcnet/internal/network"
	"afcnet/internal/router"
	"afcnet/internal/runner"
	"afcnet/internal/scenario"
	"afcnet/internal/topology"
	"afcnet/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("afcsim: ")
	var (
		kindFlag  = flag.String("kind", "afc", "router kind: backpressured|ideal-bypass|backpressureless|drop|afc|afc-always-bp|all")
		benchFlag = flag.String("bench", "apache", "workload: apache|oltp|specjbb|barnes|ocean|water|all")
		seed      = flag.Int64("seed", 1, "random seed")
		warmup    = flag.Uint64("warmup", 2000, "warmup transactions before measurement")
		tx        = flag.Uint64("tx", 6000, "measured transactions")
		limit     = flag.Uint64("limit", 20_000_000, "cycle limit")
		oldest    = flag.Bool("oldest", false, "use oldest-first deflection arbitration instead of randomized")
		prealloc  = flag.Bool("wb-prealloc", false, "use the writeback pre-allocation protocol variant (Section II)")
		realVCA   = flag.Bool("realistic-vca", false, "model the 3-stage backpressured pipeline (non-speculative VCA)")
		meshFlag  = flag.String("mesh", "3x3", "mesh dimensions WxH (the paper uses 3x3; Sec. V-B uses 8x8)")
		scenarioF = flag.String("scenario", "", "instead of a workload, run the JSON scenario spec at this path open-loop and report per-phase completion-time percentiles")
		recordTo  = flag.String("record", "", "record the created packet trace to this file")
		replayOf  = flag.String("replay", "", "instead of a workload, replay a trace file recorded with -record")
		run       = cli.Register(flag.CommandLine)
	)
	flag.Parse()

	mesh, err := parseMesh(*meshFlag)
	if err != nil {
		log.Fatal(err)
	}

	var kinds []network.Kind
	if *kindFlag == "all" {
		kinds = []network.Kind{
			network.Backpressured, network.BackpressuredIdealBypass,
			network.Bless, network.AFCAlwaysBuffered, network.AFC,
		}
	} else {
		k, ok := cli.KindByName(*kindFlag)
		if !ok {
			log.Fatalf("unknown kind %q", *kindFlag)
		}
		kinds = []network.Kind{k}
	}

	var benches []cmp.Params
	if *benchFlag == "all" {
		benches = cmp.AllBenchmarks()
	} else {
		p, ok := cmp.ByName(*benchFlag)
		if !ok {
			log.Fatalf("unknown benchmark %q", *benchFlag)
		}
		benches = []cmp.Params{p}
	}

	sys := config.DefaultWithMesh(mesh)
	sys.Baseline.RealisticVCA = *realVCA
	opt := run.Options(experiments.Options{
		Seeds:      []int64{*seed},
		WarmupTx:   *warmup,
		MeasureTx:  *tx,
		CycleLimit: *limit,
		System:     sys,
	})
	pol := router.PolicyRandom
	if *oldest {
		pol = router.PolicyOldest
	}
	ob, finish, err := run.Start("afcsim", kinds, opt.Seeds)
	if err != nil {
		log.Fatal(err)
	}
	opt.Obs = ob

	if *scenarioF != "" {
		if err := runScenario(*scenarioF, kinds, opt); err != nil {
			finish()
			log.Fatal(err)
		}
		finish()
		return
	}

	if *replayOf != "" {
		for _, k := range kinds {
			if err := replayOne(os.Stdout, *replayOf, k, pol, opt); err != nil {
				log.Fatal(err)
			}
		}
		finish()
		return
	}

	fmt.Printf("%-8s %-26s %8s %9s %9s %8s %10s %7s %7s %8s %6s\n",
		"bench", "kind", "inj", "cycles", "tx/cycle", "netlat",
		"energy", "buf%", "link%", "bufmode", "defl")
	pool := runner.Options{Parallelism: opt.Parallelism}
	if *recordTo != "" {
		// Every run writes the same trace file; keep them ordered.
		pool.Parallelism = 1
	}
	ob.Hook(&pool)
	nk := len(kinds)
	reports, err := runner.Map(len(benches)*nk, pool, func(i int) (*bytes.Buffer, error) {
		p := benches[i/nk]
		k := kinds[i%nk]
		if *prealloc {
			p.WritebackPreAlloc = true
		}
		var buf bytes.Buffer
		if err := runOne(&buf, p, k, pol, *recordTo, opt); err != nil {
			return nil, err
		}
		return &buf, nil
	})
	finish()
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
	for _, r := range reports {
		os.Stdout.Write(r.Bytes())
	}
}

// runScenario runs a scenario spec across the selected kinds and prints
// the per-phase completion-time report. The spec's timeline replaces the
// closed-loop workload entirely.
func runScenario(path string, kinds []network.Kind, opt experiments.Options) error {
	spec, err := scenario.ParseFile(path)
	if err != nil {
		return err
	}
	if err := spec.ValidateFor(opt.System.Mesh); err != nil {
		return err
	}
	rs, err := experiments.Scenario(kinds, spec, opt)
	if err != nil {
		return err
	}
	opt.Obs.RecordScenario(spec, rs)
	experiments.WriteScenario(os.Stdout, spec.Name, rs)
	return nil
}

// parseMesh parses "WxH" into a mesh.
func parseMesh(s string) (topology.Mesh, error) {
	var w, h int
	if _, err := fmt.Sscanf(s, "%dx%d", &w, &h); err != nil || w < 2 || h < 2 {
		return topology.Mesh{}, fmt.Errorf("bad mesh %q (want WxH, each >= 2)", s)
	}
	return topology.NewMesh(w, h), nil
}

// runOne executes one bench/kind cell and writes its report rows to w
// (a per-cell buffer under parallel execution, so rows never interleave).
func runOne(w io.Writer, p cmp.Params, k network.Kind, pol router.DeflectPolicy, recordTo string, opt experiments.Options) error {
	net := opt.NewNetwork(network.Config{Kind: k, Seed: opt.Seeds[0], MeterEnergy: true, Policy: pol})
	defer net.Close()
	var tr *trace.Trace
	if recordTo != "" {
		tr = trace.Record(net)
	}
	workload := cmp.NewSystem(net, p, net.RandStream)
	res, ok := workload.Measure(opt.WarmupTx, opt.MeasureTx, opt.CycleLimit)
	if !ok {
		return fmt.Errorf("%s on %s: cycle limit %d exceeded (completed %d transactions)",
			p.Name, k, opt.CycleLimit, workload.CompletedTransactions())
	}
	e := net.TotalEnergy()
	ms := net.ModeStats()
	fmt.Fprintf(w, "%-8s %-26s %8.3f %9d %9.4f %8.1f %10.0f %6.1f%% %6.1f%% %8.2f %6d\n",
		p.Name, k, res.InjectionRate, res.Cycles, res.TransactionsPerCycle,
		res.MeanNetLatency, e.Total(), 100*e.Buffer()/e.Total(),
		100*e.Link/e.Total(), ms.BufferedFraction(), net.TotalDeflections())
	if ms.EscapeEvents > 0 {
		fmt.Fprintf(w, "  note: %d escape-latch events, %d gossip switches\n",
			ms.EscapeEvents, ms.GossipSwitches)
	}
	if tr != nil {
		f, err := os.Create(recordTo)
		if err != nil {
			return err
		}
		defer f.Close()
		tr.Sort()
		if err := tr.Write(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "  recorded %d packets (%d flits) to %s\n",
			len(tr.Events), tr.Flits(), recordTo)
	}
	return nil
}

// replayOne feeds a recorded trace open-loop into a fresh network of the
// given kind, on the same system and policy runOne uses, and writes the
// trace-driven (no-feedback) metrics to w.
func replayOne(w io.Writer, path string, k network.Kind, pol router.DeflectPolicy, opt experiments.Options) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	net := opt.NewNetwork(network.Config{Kind: k, Seed: opt.Seeds[0], MeterEnergy: true, Policy: pol})
	defer net.Close()
	tr, err := trace.Read(f, net.Nodes())
	if err != nil {
		return err
	}
	rp := trace.NewReplayer(net, tr)
	net.AddTicker(rp)
	limit := tr.Duration() + 500_000
	done := net.RunUntil(func() bool { return rp.Done() && net.Drained() }, limit)
	backlog := net.CreatedPackets() - net.DeliveredPackets()
	fmt.Fprintf(w, "replay    %-26s packets=%d delivered=%d backlog=%d netlat=%.1f drained=%v\n",
		k, net.CreatedPackets(), net.DeliveredPackets(), backlog, net.MeanNetLatency(), done)
	return nil
}
