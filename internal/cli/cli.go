// Package cli declares the flags cmd/afcsim, cmd/figures and cmd/sweep
// share: the run-mode toggles (-parallel, -check, -dense, -nopool,
// -shards, each defaulting from its AFCSIM_* environment variable) and
// the observability outputs (-manifest, -progress, -cpuprofile,
// -memprofile, -debug-addr). It also starts and flushes the observer
// those flags select, and names the router kinds on the command line.
package cli

import (
	"flag"
	"log"
	"os"

	"afcnet/internal/check"
	"afcnet/internal/experiments"
	"afcnet/internal/network"
	"afcnet/internal/obs"
	"afcnet/internal/runner"
)

// kindNames maps the command-line kind names to router kinds.
var kindNames = map[string]network.Kind{
	"backpressured":    network.Backpressured,
	"ideal-bypass":     network.BackpressuredIdealBypass,
	"backpressureless": network.Bless,
	"drop":             network.BlessDrop,
	"afc":              network.AFC,
	"afc-always-bp":    network.AFCAlwaysBuffered,
}

// KindByName returns the router kind a command-line name selects.
func KindByName(name string) (network.Kind, bool) {
	k, ok := kindNames[name]
	return k, ok
}

// Run holds the shared flag values of one invocation.
type Run struct {
	Parallel                          int
	Check, Dense, NoPool              bool
	Shards                            int
	Manifest                          string
	Progress                          bool
	CPUProfile, MemProfile, DebugAddr string
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet) *Run {
	r := &Run{}
	fs.IntVar(&r.Parallel, "parallel", runner.FromEnv(), "worker-pool size; <=0 means all CPUs, 1 is serial (results are identical either way)")
	fs.BoolVar(&r.Check, "check", check.FromEnv(), "attach the runtime invariant checker to every run (or set AFCSIM_CHECK=1); identical results, slower")
	fs.BoolVar(&r.Dense, "dense", network.DenseFromEnv(), "run the dense reference kernel instead of active-set scheduling (or set AFCSIM_DENSE=1); identical results, slower at low load")
	fs.BoolVar(&r.NoPool, "nopool", network.NoPoolFromEnv(), "heap-allocate flits instead of arena pooling (or set AFCSIM_NOPOOL=1); identical results, allocates in steady state")
	fs.IntVar(&r.Shards, "shards", network.ShardsFromEnv(), "shard each network's tick across this many row bands of worker goroutines (or set AFCSIM_SHARDS=N); <=1 is the serial kernel, identical results")
	fs.StringVar(&r.Manifest, "manifest", "", "write a JSON run manifest (config, per-cell wall times, worker utilization) to this file")
	fs.BoolVar(&r.Progress, "progress", obs.ProgressFromEnv(), "print a live progress line to stderr (or set AFCSIM_PROGRESS=1)")
	fs.StringVar(&r.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&r.MemProfile, "memprofile", "", "write a heap profile to this file")
	fs.StringVar(&r.DebugAddr, "debug-addr", "", "serve net/http/pprof and expvar simulator counters on this address (e.g. localhost:6060)")
	return r
}

// Options returns base with the run-mode flags applied.
func (r *Run) Options(base experiments.Options) experiments.Options {
	base.Parallelism = r.Parallel
	base.Check = r.Check
	base.Dense = r.Dense
	base.NoPool = r.NoPool
	base.Shards = r.Shards
	return base
}

// Start starts the CPU profile and the debug endpoint the flags ask for
// and returns the run's observer. The returned finish flushes the
// observer, writes the manifest and heap profile and stops the CPU
// profile; call it on error paths too (log.Fatal skips defers), so a
// failed run still leaves its manifest behind. kinds and seeds are
// manifest metadata; either may be nil.
func (r *Run) Start(command string, kinds []network.Kind, seeds []int64) (*obs.Observer, func(), error) {
	stopCPU, err := obs.StartCPUProfile(r.CPUProfile)
	if err != nil {
		return nil, nil, err
	}
	var metrics *obs.Metrics
	if r.DebugAddr != "" {
		metrics = &obs.Metrics{}
		addr, err := obs.ServeDebug(r.DebugAddr, metrics)
		if err != nil {
			stopCPU()
			return nil, nil, err
		}
		log.Printf("debug endpoint at http://%s/debug/vars (pprof under /debug/pprof/)", addr)
	}
	var names []string
	for _, k := range kinds {
		names = append(names, k.String())
	}
	ob := obs.New(obs.Config{
		Command:  command,
		Args:     os.Args[1:],
		Workers:  r.Parallel,
		Kinds:    names,
		Seeds:    seeds,
		Manifest: r.Manifest != "",
		Progress: r.Progress,
		Metrics:  metrics,
	})
	finish := func() {
		ob.Finish()
		if err := ob.WriteManifestFile(r.Manifest); err != nil {
			log.Print(err)
		}
		if err := obs.WriteHeapProfile(r.MemProfile); err != nil {
			log.Print(err)
		}
		stopCPU()
	}
	return ob, finish, nil
}
