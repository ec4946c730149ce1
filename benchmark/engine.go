package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"clsm"
)

// eventLog collects the engine's trace events through WithObserver while
// it is on. Events are per flush, compaction or stall, not per operation.
type eventLog struct {
	mu  sync.Mutex
	on  bool
	evs []clsm.Event
}

func (l *eventLog) sink(ev clsm.Event) {
	l.mu.Lock()
	if l.on {
		l.evs = append(l.evs, ev)
	}
	l.mu.Unlock()
}

func (l *eventLog) start() {
	l.mu.Lock()
	l.on, l.evs = true, l.evs[:0]
	l.mu.Unlock()
}

func (l *eventLog) stop() []clsm.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.on = false
	return append([]clsm.Event(nil), l.evs...)
}

// openStore opens a store with default options at dir, feeding events to l.
func openStore(dir string, l *eventLog) (*clsm.DB, error) {
	db, err := clsm.OpenPath(dir, clsm.WithObserver(l.sink))
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	return db, nil
}

// waitIdle polls the scheduler's gauges until no background job is queued
// and no flush or compaction debt is left for several planner passes.
func waitIdle(db *clsm.DB, limit time.Duration) error {
	o := db.Observer()
	deadline := time.Now().Add(limit)
	quiet := 0
	for quiet < 5 {
		if time.Now().After(deadline) {
			return fmt.Errorf("background work still busy after %v", limit)
		}
		time.Sleep(10 * time.Millisecond)
		if o.SchedQueueDepth.Load() == 0 && o.CompactionDebt.Load() == 0 {
			quiet++
		} else {
			quiet = 0
		}
	}
	return nil
}

// debtPoller samples the scheduler's compaction debt gauge every 10 ms
// and keeps the maximum.
type debtPoller struct {
	stopc chan struct{}
	done  chan uint64
}

func pollDebt(db *clsm.DB) *debtPoller {
	p := &debtPoller{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		var max uint64
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if d := db.Observer().CompactionDebt.Load(); d > max {
				max = d
			}
			select {
			case <-p.stopc:
				p.done <- max
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *debtPoller) stop() uint64 {
	close(p.stopc)
	return <-p.done
}

// engineSnap is every counter the benchmark reads around a timed phase of
// an embedded store.
type engineSnap struct {
	m                    clsm.Metrics
	walAppends, walSyncs uint64
	cacheHits, cacheMiss uint64
	dropped              uint64
	throttleN            uint64
	throttleUS           float64
	io                   ioStat
	self                 selfStat
	at                   time.Time
}

func takeSnap(db *clsm.DB) (engineSnap, error) {
	o := db.Observer()
	ts := o.WriteThrottle.ValueSnapshot()
	s := engineSnap{
		m:          db.Metrics(),
		walAppends: o.WALAppends.Load(),
		walSyncs:   o.WALSyncs.Load(),
		cacheHits:  o.CacheHits.Load(),
		cacheMiss:  o.CacheMisses.Load(),
		dropped:    o.CompactionDropped.Load(),
		throttleN:  ts.Count,
		throttleUS: ts.Mean * float64(ts.Count),
		self:       readSelf(),
		at:         time.Now(),
	}
	var err error
	s.io, err = readIO("self")
	return s, err
}

// opCounts is what a timed phase issued, by kind.
type opCounts struct {
	puts, gets, rmws, scans int64
}

func (c opCounts) writes() int64 { return c.puts + c.rmws }
func (c opCounts) total() int64  { return c.puts + c.gets + c.rmws + c.scans }

func per(x float64, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return x / float64(n)
}

// eventLayers reports the scheduler, flush and compaction metrics of the
// engine events seen during a phase.
func (e *runEnv) eventLayers(evs []eventRec) {
	r := e.rep
	var flushN, compN uint64
	var flushBusy, compBusy, memWait, l0Wait time.Duration
	var flushBytes, compBytes uint64
	var byLevel [7]uint64
	for _, ev := range evs {
		switch ev.typ {
		case "flush-end":
			flushN++
			flushBusy += ev.dur
			flushBytes += ev.bytes
		case "compaction-end":
			compN++
			compBusy += ev.dur
			compBytes += ev.bytes
			if out := ev.level + 1; out >= 1 && out < len(byLevel) {
				byLevel[out] += ev.bytes
			}
		case "stall-end":
			switch ev.cause {
			case "memtable-wait":
				memWait += ev.dur
			case "l0-slowdown", "l0-stop":
				l0Wait += ev.dur
			}
		}
	}
	n := uint64(len(evs))
	r.set("sched.memtable_wait_s", memWait.Seconds(), "s", n)
	r.set("sched.l0_stall_s", l0Wait.Seconds(), "s", n)
	r.set("flush.count", float64(flushN), "count", n)
	r.set("flush.busy_s", flushBusy.Seconds(), "s", flushN)
	r.set("flush.bytes", float64(flushBytes), "B", flushN)
	r.set("compaction.count", float64(compN), "count", n)
	r.set("compaction.busy_s", compBusy.Seconds(), "s", compN)
	r.set("compaction.bytes", float64(compBytes), "B", compN)
	for l := 1; l < len(byLevel); l++ {
		r.set(fmt.Sprintf("compaction.bytes_L%d", l), float64(byLevel[l]), "B", compN)
	}
}

// eventRec is an engine event as the benchmark uses it, from either the
// embedded event sink or a server's Status snapshot.
type eventRec struct {
	typ, cause string
	level      int
	bytes      uint64
	dur        time.Duration
}

func eventRecs(evs []clsm.Event) []eventRec {
	out := make([]eventRec, len(evs))
	for i, ev := range evs {
		out[i] = eventRec{typ: ev.Type.String(), cause: ev.Cause.String(), level: ev.Level, bytes: ev.Bytes, dur: ev.Dur}
	}
	return out
}

// engineLayers reports the per-layer metrics of an embedded store between
// two snapshots taken around a phase that issued ops.
func (e *runEnv) engineLayers(db *clsm.DB, b, a engineSnap, ops opCounts, evs []clsm.Event, debtMax uint64, dir string) error {
	r := e.rep
	w, g, n := ops.writes(), ops.gets, ops.total()
	r.set("wal.appends_per_put", per(float64(a.walAppends-b.walAppends), w), "count/op", uint64(w))
	r.set("wal.syncs_per_put", per(float64(a.walSyncs-b.walSyncs), w), "count/op", uint64(w))
	gs := db.Observer().WALGroupSize.ValueSnapshot()
	r.set("wal.group_records_p50", float64(gs.P50), "count", gs.Count)
	r.set("wal.group_records_p99", float64(gs.P99), "count", gs.Count)

	r.set("sched.throttle_waits", float64(a.throttleN-b.throttleN), "count", uint64(w))
	r.set("sched.throttle_wait_s", (a.throttleUS-b.throttleUS)/1e6, "s", a.throttleN-b.throttleN)
	r.set("sched.debt_bytes_max", float64(debtMax), "B", 1)
	e.eventLayers(eventRecs(evs))
	r.set("compaction.dropped", float64(a.dropped-b.dropped), "count", 1)
	levels := 0
	for _, files := range a.m.LevelSize {
		if files > 0 {
			levels++
		}
	}
	r.set("version.l0_files", float64(a.m.LevelSize[0]), "count", 1)
	r.set("version.levels_used", float64(levels), "count", 1)

	hits, miss := a.cacheHits-b.cacheHits, a.cacheMiss-b.cacheMiss
	if hits+miss > 0 {
		r.set("cache.hit_ratio", float64(hits)/float64(hits+miss), "ratio", hits+miss)
	}
	r.set("cache.misses_per_get", per(float64(miss), g), "count/op", uint64(g))
	io := a.io.sub(b.io)
	r.set("io.read_bytes_per_get", per(float64(io.rchar), g), "B/op", uint64(g))
	r.set("io.read_calls_per_get", per(float64(io.syscr), g), "count/op", uint64(g))
	r.set("io.write_calls_per_put", per(float64(io.syscw), w), "count/op", uint64(w))
	r.set("io.write_bytes_per_put", per(float64(io.wchar), w), "B/op", uint64(w))
	r.set("rmw.retries_per_rmw", per(float64(a.m.RMWRetries-b.m.RMWRetries), ops.rmws), "count/op", uint64(ops.rmws))
	if _, tables, err := dirBytes(dir); err == nil {
		r.set("disk.table_bytes", float64(tables), "B", 1)
	} else {
		return err
	}
	e.procLayers(b.self, a.self, n)
	return nil
}

// procLayers reports the benchmark process's own CPU, allocation and
// memory figures over a phase that issued n operations.
func (e *runEnv) procLayers(b, a selfStat, n int64) {
	r := e.rep
	r.set("proc.cpu_us_per_op", per(float64(a.cpu-b.cpu)/1e3, n), "us/op", uint64(n))
	r.set("proc.allocs_per_op", per(float64(a.allocObjs-b.allocObjs), n), "count/op", uint64(n))
	r.set("proc.alloc_bytes_per_op", per(float64(a.allocBytes-b.allocBytes), n), "B/op", uint64(n))
	r.set("proc.gc_cpu_s", a.gcCPU-b.gcCPU, "s", 1)
	r.set("proc.max_rss_mb", float64(a.maxRSSKB)/1024, "MB", 1)
}

// latencyMetrics reports the latency metrics every workload shares, plus
// the per-class figures of the classes it issued.
func (e *runEnv) latencyMetrics(all, writes *hist, byOp *[numOps]hist) {
	r := e.rep
	r.latency("", all)
	r.latency("write_", writes)
	for _, op := range []opKind{opPut, opGet, opRMW, opScan} {
		if byOp[op].n > 0 {
			r.latency(opNames[op]+"_", &byOp[op])
		}
	}
}

// traceLayers reports the traced-run metrics: per-class Get medians, scan
// breakdown, span count and the measured cost of recording spans.
func (e *runEnv) traceLayers(ts []*tracer, ops int64) error {
	if !e.trace {
		return nil
	}
	m := mergeTracers(ts)
	r := e.rep
	for _, c := range []keyClass{clsHot, clsCold, clsAbsent} {
		if h := &m.lat[opGet][c]; h.n > 0 {
			r.set("get."+classNames[c]+"_p50_us", h.quantile(0.5)/1e3, "us", h.n)
		}
	}
	if h := &m.lat[opSnapshot][clsNone]; h.n > 0 {
		r.set("scan.snapshot_p50_us", h.quantile(0.5)/1e3, "us", h.n)
	}
	if h := &m.lat[opNext][clsNone]; h.n > 0 {
		r.set("scan.next_p50_ns", h.quantile(0.5), "ns", h.n)
	}
	if m.self.n > 0 {
		r.set("scan.self_p50_us", m.self.quantile(0.5)/1e3, "us", m.self.n)
		r.set("scan.keys_per_scan", m.keys.mean(), "count", m.keys.n)
	}
	cost := spanCost()
	var allLat hist
	for op := range m.lat {
		if opKind(op) == opSnapshot || opKind(op) == opNext || opKind(op) == opClose {
			continue
		}
		for c := range m.lat[op] {
			allLat.merge(&m.lat[op][c])
		}
	}
	r.set("trace.spans", float64(m.total), "count", uint64(ops))
	r.set("trace.ns_per_span", float64(cost), "ns", 200000)
	if allLat.sum > 0 {
		r.set("trace.overhead_pct", 100*float64(cost)*float64(m.total)/allLat.sum, "%", uint64(m.total))
	}
	if err := os.MkdirAll(e.traceDir(), 0o755); err != nil {
		return err
	}
	path := e.traceDir() + "/" + e.workload + ".jsonl"
	if err := writeTrace(path, ts); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "trace: %d spans recorded, first %d per worker written to %s\n", m.total, spanCap, path)
	return nil
}

func (e *runEnv) traceDir() string { return e.work + "/trace" }

// tracers returns the workers' tracers.
func tracers(ws []*worker) []*tracer {
	var ts []*tracer
	for _, w := range ws {
		if w.tr != nil {
			ts = append(ts, w.tr)
		}
	}
	return ts
}

// failures sums the workers' failed operations and reports the first error.
func (e *runEnv) failures(ws []*worker) int64 {
	var n int64
	for _, w := range ws {
		n += w.failed
		if w.firstErr != nil {
			fmt.Fprintf(e.out, "worker %d: first failed operation: %v\n", w.id, w.firstErr)
		}
	}
	return n
}
