// Package runner provides the deterministic fan-out engine behind every
// experiment harness: a fixed-size worker pool that executes independent
// (bench, kind, seed) cells and merges their results in submission order.
//
// The engine is deliberately work-stealing-free: cells are claimed from a
// single atomic cursor in index order, so with Parallelism == 1 the
// execution order is exactly the serial loop it replaces. Each cell must
// own all of its mutable state (its own network, its own sim.Source
// substreams); the engine never shares anything between cells except the
// read-only descriptor slice, which is what makes parallel output
// bit-for-bit equal to serial output.
//
// Error semantics: the error returned is always the error of the
// lowest-indexed failing cell, regardless of scheduling. (Cells are
// claimed in index order, so the lowest-indexed failing cell is claimed —
// and therefore executed — before any later failure can be observed.)
// After a failure, in-flight cells run to completion and not-yet-claimed
// cells are skipped, so the pool drains promptly. Panics inside a cell are
// recovered and surfaced as errors carrying the cell index.
package runner

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a fan-out run.
type Options struct {
	// Parallelism is the worker count; <= 0 selects GOMAXPROCS. The pool
	// never uses more workers than there are cells. Parallelism == 1
	// reproduces the serial loop exactly (same execution order, stop at
	// first error).
	Parallelism int

	// OnBatch, if non-nil, is invoked once per Run call, before any cell
	// executes, with the cell count and the effective worker count. The
	// observability layer (internal/obs) uses it to size progress totals.
	OnBatch func(cells, workers int)

	// OnCellStart, if non-nil, is invoked immediately before a cell
	// executes. Calls are serialized with OnCell under one mutex, so a
	// single unsynchronized observer can track in-flight cells.
	OnCellStart func(index int)

	// OnCell, if non-nil, is invoked after each executed cell with its
	// index, error (nil on success) and wall-clock duration. Calls are
	// serialized but arrive in completion order, not index order. Skipped
	// cells (drained after a failure) do not invoke it.
	OnCell func(index int, err error, elapsed time.Duration)
}

// Workers returns the effective worker count for cells cells.
func (o Options) Workers(cells int) int {
	w := o.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cells {
		w = cells
	}
	if w < 1 {
		w = 1
	}
	return w
}

// EnvVar is the environment variable the commands consult for a default
// worker count (their -parallel flag overrides it).
const EnvVar = "AFCSIM_PARALLEL"

// FromEnv returns the default worker count: $AFCSIM_PARALLEL when it is a
// positive integer, GOMAXPROCS otherwise. A set-but-unusable value (not
// an integer, or <= 0) is reported on stderr so a typo does not silently
// run at full parallelism.
func FromEnv() int {
	return fromEnv(os.Getenv(EnvVar), os.Stderr)
}

// fromEnv is FromEnv with the environment value and warning sink
// injected for tests.
func fromEnv(s string, warn io.Writer) int {
	def := runtime.GOMAXPROCS(0)
	if s == "" {
		return def
	}
	if v, err := strconv.Atoi(s); err == nil && v > 0 {
		return v
	}
	fmt.Fprintf(warn, "runner: ignoring %s=%q (want a positive integer); using GOMAXPROCS=%d\n",
		EnvVar, s, def)
	return def
}

// Run executes fn(i) for every i in [0, n) on a pool of
// min(Parallelism, n) workers and returns the lowest-indexed error, or
// nil if every cell succeeded.
func Run(n int, opt Options, fn func(i int) error) error {
	return RunWorkers(n, opt, func(_, i int) error { return fn(i) })
}

// RunWorkers is Run with the executing worker's identity exposed: fn is
// called as fn(worker, i) where worker is a stable index in [0, workers).
// A worker executes its cells sequentially, so per-worker state (a
// reused network, scratch buffers) needs no locking; cells must not
// depend on which worker — and hence which prior cell's recycled state —
// they land on. With one worker every cell sees worker 0, in index
// order: the serial loop exactly.
func RunWorkers(n int, opt Options, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := opt.Workers(n)
	if opt.OnBatch != nil {
		opt.OnBatch(n, workers)
	}

	var cbMu sync.Mutex
	starting := func(i int) {
		if opt.OnCellStart == nil {
			return
		}
		cbMu.Lock()
		opt.OnCellStart(i)
		cbMu.Unlock()
	}
	report := func(i int, err error, elapsed time.Duration) {
		if opt.OnCell == nil {
			return
		}
		cbMu.Lock()
		opt.OnCell(i, err, elapsed)
		cbMu.Unlock()
	}
	exec := func(worker, i int) error {
		starting(i)
		begin := time.Now()
		err := runCell(worker, i, fn)
		report(i, err, time.Since(begin))
		return err
	}

	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := exec(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		cursor atomic.Int64
		// failedAt is the lowest failing index so far (n while none).
		// Only cells past it are skipped: a cell claimed before the
		// failure but checked after it still runs, so every cell below
		// the returned error's index executes.
		failedAt atomic.Int64
		errMu    sync.Mutex
		first    error
		firstI   int
		wg       sync.WaitGroup
	)
	failedAt.Store(int64(n))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if int64(i) > failedAt.Load() {
					continue // drain: skip cells past the lowest failure
				}
				err := exec(worker, i)
				if err != nil {
					errMu.Lock()
					if first == nil || i < firstI {
						first, firstI = err, i
						failedAt.Store(int64(i))
					}
					errMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

// runCell invokes fn(worker, i), converting a panic into an error so one
// bad cell cannot tear down the whole sweep.
func runCell(worker, i int, fn func(worker, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: cell %d panicked: %v", i, r)
		}
	}()
	return fn(worker, i)
}

// Map executes fn over n cells and returns the results in submission
// (index) order, regardless of which worker finished when. On error the
// partial results of the cells that did execute are returned alongside
// the lowest-indexed error.
func Map[T any](n int, opt Options, fn func(i int) (T, error)) ([]T, error) {
	return MapWorkers(n, opt, func(_, i int) (T, error) { return fn(i) })
}

// MapWorkers is Map with the executing worker's identity exposed; see
// RunWorkers for the worker contract.
func MapWorkers[T any](n int, opt Options, fn func(worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := RunWorkers(n, opt, func(worker, i int) error {
		v, err := fn(worker, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
