package main

import (
	"sync"
	"time"
)

// runTimed runs round on every worker, each in its own goroutine, until d
// has passed; all workers start together and a round is never cut short,
// so every worker attempts whole rounds. It returns the elapsed time from
// the common start to the last worker's finish.
func runTimed(ws []*worker, d time.Duration, round func(w *worker)) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	var deadline time.Time
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			<-start
			for time.Now().Before(deadline) {
				round(w)
			}
		}(w)
	}
	t0 := time.Now()
	deadline = t0.Add(d)
	close(start)
	wg.Wait()
	return time.Since(t0)
}

// runAll runs body once on every worker concurrently, released together,
// and returns the elapsed time until the last one finishes.
func runAll(ws []*worker, body func(w *worker)) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			<-start
			body(w)
		}(w)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}
