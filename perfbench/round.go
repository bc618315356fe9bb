package main

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// round is one pass over a workload's cells.
type round struct {
	seed   int64
	traced bool
	cells  []cellResult
	// wallNs is the round's critical path without set-up: the longest
	// worker's elapsed time minus that worker's own set-up time.
	wallNs    int64
	elapsedNs int64
	// Per worker: busy time (set-up plus run) and idle time after its
	// last cell until the round ended.
	busyNs, tailIdleNs []int64
	allocBytes         uint64
	mu                 sync.Mutex // guards heapLiveBytes
	heapLiveBytes      uint64
	gcCycles           uint32
	gcPauseNs          uint64
	// serial holds, for a sharded traced round, each cell rerun on the
	// serial kernel: the baseline of shard.speedup.
	serial []cellResult
}

// sampleHeap records the live heap, as a forced collection leaves it,
// when it exceeds the round's peak so far. A worker calls it before it
// releases a stack, when that stack's network, arena, NI backlogs and
// histograms are at their largest.
func (r *round) sampleHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.mu.Lock()
	r.heapLiveBytes = max(r.heapLiveBytes, m.HeapAlloc)
	r.mu.Unlock()
}

// runRound runs every cell of w once with seed on fresh workers,
// pulling cells from a shared cursor like internal/runner's pool.
func runRound(w *workload, seed int64, traced bool) *round {
	r := &round{seed: seed, traced: traced, cells: make([]cellResult, len(w.cells))}
	p := w.parallelism
	workers := make([]*worker, p)
	ends := make([]int64, p)
	setups := make([]int64, p)
	r.busyNs = make([]int64, p)
	r.tailIdleNs = make([]int64, p)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := nanotime()
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < p; g++ {
		workers[g] = newWorker()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wk := workers[g]
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(w.cells) {
					break
				}
				c := wk.runCell(&w.cells[i], seed, w.shards, traced)
				r.cells[i] = c
				setups[g] += c.setup.total()
				r.busyNs[g] += c.setup.total() + c.runNs
				if c.spec.last {
					r.sampleHeap()
					wk.release(c.spec.kind)
				}
			}
			ends[g] = nanotime()
		}(g)
	}
	wg.Wait()
	end := nanotime()
	runtime.ReadMemStats(&m1)

	for _, wk := range workers {
		wk.close()
	}
	r.elapsedNs = end - start
	for g := range workers {
		if d := ends[g] - start - setups[g]; d > r.wallNs {
			r.wallNs = d
		}
		r.tailIdleNs[g] = end - ends[g]
	}
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs

	if traced && w.shards > 1 {
		for i := range w.cells {
			wk := newWorker()
			r.serial = append(r.serial, wk.runCell(&w.cells[i], seed, 1, false))
			wk.close()
		}
	}
	return r
}
