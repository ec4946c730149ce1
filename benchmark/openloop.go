package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// ticket is one scheduled request: its index and when it was due.
type ticket struct {
	i   int
	due time.Time
}

// openLoop issues requests on a fixed schedule regardless of how fast
// they complete: request i is due at start + i/rate. Each request is timed
// from when it was due, so a stall charges every request queued behind it
// (no coordinated omission), and the generator's own lateness — how long
// after its due time a request was picked up — is recorded separately.
type openLoop struct {
	rate    float64
	total   int
	workers int
	ops     []opKind // kind of request i, for per-kind latencies

	lat  []*[numOps]hist // per worker
	late []*hist         // per worker
	tr   []*tracer       // per worker when tracing
	errs []int64
	err  []error
}

func newOpenLoop(rate float64, ops []opKind, workers int, trace bool, epoch time.Time) *openLoop {
	l := &openLoop{rate: rate, total: len(ops), workers: workers, ops: ops,
		errs: make([]int64, workers), err: make([]error, workers)}
	for w := 0; w < workers; w++ {
		l.lat = append(l.lat, new([numOps]hist))
		l.late = append(l.late, new(hist))
		if trace {
			l.tr = append(l.tr, newTracer(epoch))
		}
	}
	return l
}

// run executes every request with do(worker, i) and returns the time from
// the schedule's start to the last completion.
func (l *openLoop) run(do func(w, i int) error) time.Duration {
	// The queue holds every request of the run, so the pacer never blocks
	// on busy workers: a backlog waits here and is charged from due time.
	queue := make(chan ticket, l.total)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var last time.Time
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var end time.Time
			for t := range queue {
				picked := time.Now()
				l.late[w].recordDur(picked.Sub(t.due))
				err := do(w, t.i)
				end = time.Now()
				l.lat[w][l.ops[t.i]].recordDur(end.Sub(t.due))
				if l.tr != nil {
					tr := l.tr[w]
					s := int64(picked.Sub(tr.epoch))
					tr.add(l.ops[t.i], clsNone, s, int64(end.Sub(tr.epoch)), -1)
				}
				if err != nil {
					l.errs[w]++
					if l.err[w] == nil {
						l.err[w] = err
					}
				}
			}
			mu.Lock()
			if end.After(last) {
				last = end
			}
			mu.Unlock()
		}(w)
	}
	start := time.Now()
	go func() {
		// Go timers are coarse here (a sub-millisecond sleep takes about a
		// millisecond), so the pacer sleeps in nanosleep(2) on its own
		// thread to shortly before each due time and spins the rest.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := 0; i < l.total; i++ {
			due := start.Add(time.Duration(float64(i) * float64(time.Second) / l.rate))
			waitUntil(due)
			queue <- ticket{i: i, due: due}
		}
		close(queue)
	}()
	wg.Wait()
	return last.Sub(start)
}

// pacerSlack is how long before a due time the pacer stops sleeping and
// spins; nanosleep overshoots by about 60 µs here.
const pacerSlack = 100 * time.Microsecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - pacerSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
	}
}

// merged folds the per-worker histograms together.
func (l *openLoop) merged() (byOp [numOps]hist, late hist, failed int64, firstErr error) {
	for w := 0; w < l.workers; w++ {
		for op := range byOp {
			byOp[op].merge(&l.lat[w][op])
		}
		late.merge(l.late[w])
		failed += l.errs[w]
		if firstErr == nil {
			firstErr = l.err[w]
		}
	}
	return byOp, late, failed, firstErr
}
