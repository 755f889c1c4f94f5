package expgrid

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Progress reports one completed cell. Done counts completions (in
// completion order, which under concurrency need not match enumeration
// order); Total is the grid size. Cached counts the completions so far
// that were served from Sweep.Cache instead of a fresh simulation, so a
// cache-warm sweep can report how many cells it skipped. Elapsed is the
// wall time since the sweep started and ETA the estimated remaining wall
// time (0 when unknown or done); both are display-only — they never feed
// back into any measurement.
type Progress struct {
	Done    int
	Total   int
	Cached  int
	Elapsed time.Duration
	ETA     time.Duration
	Last    CellResult
}

// String renders the progress line both CLIs print under -v:
// "12/40 cells (3 cached) elapsed 1.2s eta 2.8s".
func (p Progress) String() string {
	s := fmt.Sprintf("%d/%d cells", p.Done, p.Total)
	if p.Cached > 0 {
		s += fmt.Sprintf(" (%d cached)", p.Cached)
	}
	s += fmt.Sprintf(" elapsed %s", p.Elapsed.Round(time.Millisecond))
	if p.Done < p.Total && p.ETA > 0 {
		s += fmt.Sprintf(" eta %s", p.ETA.Round(time.Millisecond))
	}
	return s
}

// Runner executes a Sweep's cells on a pool of workers. The zero value is
// ready to use and sizes the pool to GOMAXPROCS.
type Runner struct {
	// Workers is the pool size; values <= 0 mean GOMAXPROCS(0).
	Workers int
	// OnProgress, when non-nil, is invoked serially (never concurrently)
	// once per completed cell.
	OnProgress func(Progress)
}

func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes every cell of the sweep and returns the results in
// enumeration order. It stops early — abandoning cells not yet started,
// but letting in-flight cells finish — when ctx is cancelled (returning
// ctx.Err()) or when a cell fails (returning that cell's error).
func (r Runner) Run(ctx context.Context, sw Sweep) ([]CellResult, error) {
	stream, errf := r.Stream(ctx, sw)
	var out []CellResult
	for res := range stream {
		out = append(out, res)
	}
	return out, errf()
}

// Stream launches the sweep and returns a channel yielding one CellResult
// per cell in deterministic enumeration order, regardless of the order
// workers finish in. The channel closes when the sweep completes, a cell
// fails, or ctx is cancelled; after it closes, the returned error function
// reports the first cell error or the context error (nil on full success).
// The caller must drain the channel.
func (r Runner) Stream(ctx context.Context, sw Sweep) (<-chan CellResult, func() error) {
	var firstErr error
	if err := sw.Validate(); err != nil {
		out := make(chan CellResult)
		close(out)
		return out, func() error { return err }
	}
	sw.fingerprint = sw.Fingerprint()
	cells := sw.Cells()
	workers := r.workers()
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}

	jobs := make(chan Cell)
	results := make(chan CellResult, workers)
	out := make(chan CellResult, workers)

	// Feeder: hands cells to workers until the grid is exhausted or the
	// sweep is cancelled (externally or by a failed cell).
	runCtx, cancel := context.WithCancel(ctx)
	go func() {
		defer close(jobs)
		for _, c := range cells {
			select {
			case jobs <- c:
			case <-runCtx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for c := range jobs {
				results <- sw.run(c)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: reorders completion-order results into enumeration order
	// and invokes OnProgress serially.
	completed := false
	started := time.Now()
	go func() {
		defer cancel()
		defer close(out)
		pending := make(map[int]CellResult, workers)
		next, done, cached := 0, 0, 0
		defer func() { completed = next == len(cells) }()
		for res := range results {
			done++
			if res.Cached {
				cached++
			}
			if r.OnProgress != nil {
				elapsed := time.Since(started)
				var eta time.Duration
				if done > 0 && done < len(cells) {
					eta = elapsed / time.Duration(done) * time.Duration(len(cells)-done)
				}
				r.OnProgress(Progress{
					Done: done, Total: len(cells), Cached: cached,
					Elapsed: elapsed, ETA: eta, Last: res,
				})
			}
			if res.Err != nil && firstErr == nil {
				firstErr = res.Err
				cancel() // stop feeding; drain in-flight cells below
			}
			pending[res.Index] = res
			for {
				head, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				if firstErr == nil {
					out <- head
				}
			}
		}
	}()

	return out, func() error {
		if firstErr != nil {
			return firstErr
		}
		if !completed {
			return ctx.Err()
		}
		return nil
	}
}
