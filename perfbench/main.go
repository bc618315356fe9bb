// Command perfbench is the repository benchmark: it runs one named
// workload for a fixed host-time budget and prints its end-to-end
// metrics, or with -trace 1 its per-layer metrics, as the last line of
// standard output (see README.md).
//
//	go run . -workload paper-closed-3x3 -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// defaultSeed is the seed whose cell digests are pinned in digests.go.
const defaultSeed = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", defaultSeed, "seed of every cell")
		seconds = flag.Int("seconds", 10, "host seconds of measured rounds (after one warm-up round)")
		trace   = flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
		digests = flag.Bool("digests", false, "print one round's cell digests as the Go source of the pinned table, and exit")
	)
	flag.Parse()
	w, ok := newWorkload(*name, full)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload one of %s, -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if *digests {
		r := runRound(w, *seed, false)
		fmt.Printf("\t%q: {\n", w.name)
		for _, c := range r.cells {
			fmt.Printf("\t\t%q: %q,\n", c.spec.name, c.digest)
		}
		fmt.Println("\t},")
		return
	}

	fmt.Printf("host: NumCPU=%d GOMAXPROCS=%d go=%s seed=%d workload=%s parallelism=%d shards=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, w.name, w.parallelism, max(w.shards, 1))
	b := &bench{w: w, seed: *seed}
	b.run(*seconds, *trace == 1)

	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	if *trace == 1 {
		res.Metrics = layerMetrics(b.pairs)
	} else {
		res.Metrics = e2eMetrics(b.rounds)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-48s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench runs a workload's rounds and checks every cell.
type bench struct {
	w    *workload
	seed int64

	attempted, failed int

	rounds []*round    // measured untraced rounds
	pairs  [][2]*round // measured (untraced, traced) round pairs
}

// run runs a warm-up round, then measured rounds until seconds of host
// time have passed. Every round repeats the same cells at the run's
// seed, so every round's digests must equal the warm-up's. A traced run
// plays untraced and traced rounds in alternating order; each pair
// gives one overhead ratio.
func (b *bench) run(seconds int, traced bool) {
	warm := b.check(runRound(b.w, b.seed, false), nil)
	deadline := nanotime() + int64(seconds)*1e9
	for n := 0; n == 0 || nanotime() < deadline; n++ {
		if !traced {
			b.rounds = append(b.rounds, b.check(runRound(b.w, b.seed, false), warm))
			continue
		}
		var p [2]*round
		if n%2 == 0 {
			p[0] = b.check(runRound(b.w, b.seed, false), warm)
			p[1] = b.check(runRound(b.w, b.seed, true), warm)
		} else {
			p[1] = b.check(runRound(b.w, b.seed, true), warm)
			p[0] = b.check(runRound(b.w, b.seed, false), warm)
		}
		b.pairs = append(b.pairs, p)
	}
}

// check counts r's cells and fails each one that errored, whose digest
// differs from ref's or from the pinned digest of its seed, or whose
// serial rerun differs from it.
func (b *bench) check(r, ref *round) *round {
	fmt.Fprintf(os.Stderr, "round seed=%d traced=%v wall=%.3fs elapsed=%.3fs\n", r.seed, r.traced, float64(r.wallNs)/1e9, float64(r.elapsedNs)/1e9)
	pin := pinned(b.w.name, r.seed)
	for i := range r.cells {
		c := &r.cells[i]
		b.attempted++
		var why string
		switch {
		case c.err != nil:
			why = c.err.Error()
		case ref != nil && c.digest != ref.cells[i].digest:
			why = fmt.Sprintf("digest %s (traced=%v) differs from the warm-up round's %s", c.digest, r.traced, ref.cells[i].digest)
		case pin != nil && c.digest != pin[c.spec.name]:
			why = fmt.Sprintf("digest %s differs from the pinned %s", c.digest, pin[c.spec.name])
		}
		if why != "" {
			b.fail(c.spec.name, why)
		}
	}
	for i := range r.serial {
		s := &r.serial[i]
		b.attempted++
		if s.err != nil || s.digest != r.cells[i].digest {
			b.fail(s.spec.name, fmt.Sprintf("serial rerun digest %s (err %v) differs from the sharded %s", s.digest, s.err, r.cells[i].digest))
		}
	}
	return r
}

func (b *bench) fail(cell, why string) {
	b.failed++
	fmt.Fprintf(os.Stderr, "FAIL %s %s: %s\n", b.w.name, cell, why)
}
