package main

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"time"
)

// rmw_scan: a key space that fits the cache but not the memtable, so
// reads and scans merge the memtables with the sorted tables. Each client
// increments zipfian counters with RMW (Algorithm 3), reads and writes a
// separate family of data keys, and scans 1–100 data keys from fresh
// snapshots.
const (
	counterKeys   = 1000
	counterFamily = 'c'
	dataKeys      = 100_000
	dataFamily    = 'd'
	dataValue     = 100
	zipfTheta     = 0.99
	maxScan       = 100
)

// One round of every rmw_scan client, in a seeded order.
var rmwRound = []struct {
	n  int
	op opKind
}{
	{10, opRMW},
	{4, opGet},
	{4, opPut},
	{2, opScan},
}

// rmwWorker is a worker's RMW and scan state. Its methods are bound once,
// so the timed loop passes them to the store without allocating.
type rmwWorker struct {
	*worker
	tally   []uint32 // acknowledged increments per counter
	calls   int64    // RMW callback invocations
	badOld  int64    // callback saw a counter value of the wrong shape
	counter []byte

	incr  func(old []byte, exists bool) []byte
	visit func(k, v []byte)

	// scan being checked
	next, end uint64
	scanBad   int64
	firstBad  string
}

func newRMWWorker(w *worker) *rmwWorker {
	rw := &rmwWorker{worker: w, tally: make([]uint32, counterKeys), counter: make([]byte, 8)}
	rw.incr = rw.increment
	rw.visit = rw.checkScanned
	return rw
}

// increment is the RMW callback: it may run more than once per RMW when
// the engine detects a conflict, so it only reads its input. The store
// copies the returned bytes before RMW returns.
func (rw *rmwWorker) increment(old []byte, exists bool) []byte {
	rw.calls++
	var c uint64
	if exists {
		if len(old) == 8 {
			c = binary.BigEndian.Uint64(old)
		} else {
			rw.badOld++
		}
	}
	binary.BigEndian.PutUint64(rw.counter, c+1)
	return rw.counter
}

// checkScanned checks one scanned pair: data keys are never deleted, so a
// scan from id s visits s, s+1, ... in order, each with a valid value of
// its own key, whatever version the snapshot shows.
func (rw *rmwWorker) checkScanned(k, v []byte) {
	id, ok := keyID(k, dataFamily)
	switch {
	case !ok:
		rw.scanFail("scan returned key %q outside the data family", k)
	case id != rw.next:
		rw.scanFail("scan returned id %d, expected %d", id, rw.next)
	case id >= rw.end:
		rw.scanFail("scan returned id %d past its upper bound %d", id, rw.end)
	default:
		if _, valid := checkValue(v, id, dataValue); !valid {
			rw.scanFail("scan returned a corrupt or foreign value for id %d", id)
		}
	}
	rw.next = id + 1
}

func (rw *rmwWorker) scanFail(format string, args ...any) {
	rw.scanBad++
	if rw.firstBad == "" {
		rw.firstBad = fmt.Sprintf(format, args...)
	}
}

func runRMWScan(e *runEnv) (int64, int64, error) {
	dir := filepath.Join(e.tmp, "db")
	var evl eventLog
	db, err := openStore(dir, &evl)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if db != nil {
			db.Close()
		}
	}()
	r := newRNG(e.seed, 1)
	if err := loadDataset(db, &r, dataFamily, dataKeys, 1, dataValue); err != nil {
		return 0, 0, err
	}
	if err := db.CompactRange(); err != nil {
		return 0, 0, fmt.Errorf("compact after load: %w", err)
	}
	if err := db.Close(); err != nil {
		db = nil
		return 0, 0, fmt.Errorf("close after load: %w", err)
	}
	db = nil
	if db, err = openStore(dir, &evl); err != nil {
		return 0, 0, err
	}
	// Warm the data family into the cache.
	key := make([]byte, keyLen)
	for j := 0; j < dataKeys; j++ {
		if _, _, err := db.Get(putKey(key, dataFamily, uint64(j))); err != nil {
			return 0, 0, fmt.Errorf("warm-up get: %w", err)
		}
	}

	epoch := time.Now()
	ws := make([]*worker, e.clients)
	for i := range ws {
		ws[i] = newWorker(i, e.seed, dataValue, e.trace, epoch)
	}
	l := newRMWLoad(dbStore{db}, ws)
	rws := l.rws
	before, err := takeSnap(db)
	if err != nil {
		return 0, 0, err
	}
	evl.start()
	debt := pollDebt(db)
	e.setupDone()

	elapsed := runTimed(ws, time.Duration(e.seconds)*time.Second, l.round)
	debtMax := debt.stop()
	evs := evl.stop()
	after, err := takeSnap(db)
	if err != nil {
		return 0, 0, err
	}
	failed := e.failures(ws)
	all, writes, byOp := latencies(ws)
	ops := opCounts{puts: int64(byOp[opPut].n), gets: int64(byOp[opGet].n), rmws: int64(byOp[opRMW].n), scans: int64(byOp[opScan].n)}
	e.rep.set("ops_per_s", float64(ops.total())/elapsed.Seconds(), "ops/s", uint64(ops.total()))
	e.latencyMetrics(&all, &writes, &byOp)
	live := uint64(counterKeys*(keyLen+8) + dataKeys*(keyLen+dataValue))
	logical := uint64(ops.puts)*(keyLen+dataValue) + uint64(ops.rmws)*(keyLen+8)
	e.writeSpaceAmp(dir, before, after, ops.writes(), logical, live)
	if err := e.engineLayers(db, before, after, ops, evs, debtMax, dir); err != nil {
		return 0, 0, err
	}
	if err := e.traceLayers(tracers(ws), ops.total()); err != nil {
		return 0, 0, err
	}

	var bad int64
	for i, rw := range rws {
		bad += l.badGets[i]
		if rw.scanBad > 0 {
			e.problem("rmw_scan: %d bad scanned pairs; first: %s", rw.scanBad, rw.firstBad)
		}
		if rw.badOld > 0 {
			e.problem("rmw_scan: RMW callback saw %d counter values of the wrong shape", rw.badOld)
		}
	}
	if bad > 0 {
		e.problem("rmw_scan: %d gets of data keys missed or returned a bad value", bad)
	}
	read := func(c int) (uint64, bool, error) {
		v, ok, err := db.Get(putKey(key, counterFamily, uint64(c)))
		if err != nil || !ok {
			return 0, ok, err
		}
		if len(v) != 8 {
			return 0, false, fmt.Errorf("counter %d holds %d bytes", c, len(v))
		}
		return binary.BigEndian.Uint64(v), true, nil
	}
	if err := checkCounters(read, rws); err != nil {
		e.problem("rmw_scan: %v", err)
	}
	var calls int64
	for _, rw := range rws {
		calls += rw.calls
	}
	retries := int64(after.m.RMWRetries - before.m.RMWRetries)
	if err := checkCallbacks(calls, ops.rmws-failedOf(ws, opRMW), retries); err != nil {
		e.problem("rmw_scan: %v", err)
	}
	return ops.total(), failed, nil
}

// rmwLoad is the state of rmw_scan's timed loop.
type rmwLoad struct {
	st       store
	z        *zipf
	rws      []*rmwWorker
	rounds   [][]opKind
	versions []uint64
	badGets  []int64
}

func newRMWLoad(st store, ws []*worker) *rmwLoad {
	l := &rmwLoad{st: st, z: newZipf(counterKeys, zipfTheta), rounds: make([][]opKind, len(ws)),
		versions: make([]uint64, len(ws)), badGets: make([]int64, len(ws))}
	for i, w := range ws {
		l.rws = append(l.rws, newRMWWorker(w))
		for _, part := range rmwRound {
			for k := 0; k < part.n; k++ {
				l.rounds[i] = append(l.rounds[i], part.op)
			}
		}
	}
	return l
}

// round runs one round of worker w's operations in a seeded order.
func (l *rmwLoad) round(w *worker) {
	rw := l.rws[w.id]
	slots := l.rounds[w.id]
	shuffle(&w.rng, slots)
	for _, op := range slots {
		switch op {
		case opRMW:
			c := l.z.draw(&w.rng)
			putKey(w.key, counterFamily, uint64(c))
			start := time.Now()
			err := l.st.RMW(w.key, rw.incr)
			w.done(opRMW, clsNone, start, err)
			if err == nil {
				rw.tally[c]++
			}
		case opGet:
			id := uint64(w.rng.intn(dataKeys))
			putKey(w.key, dataFamily, id)
			start := time.Now()
			v, ok, err := l.st.Get(w.key)
			w.done(opGet, clsHot, start, err)
			if err == nil {
				if _, valid := checkValue(v, id, dataValue); !ok || !valid {
					l.badGets[w.id]++
				}
			}
		case opPut:
			id := uint64(w.rng.intn(dataKeys))
			l.versions[w.id]++
			putKey(w.key, dataFamily, id)
			putValue(w.val, id, uint64(w.id+1)<<40|l.versions[w.id])
			start := time.Now()
			err := l.st.Put(w.key, w.val)
			w.done(opPut, clsNone, start, err)
		case opScan:
			rw.scan(l.st)
		}
	}
}

// scan runs one snapshot scan of 1–maxScan data keys and checks it.
func (rw *rmwWorker) scan(st store) {
	w := rw.worker
	start := uint64(w.rng.intn(dataKeys))
	limit := 1 + w.rng.intn(maxScan)
	putKey(w.key, dataFamily, start)
	putKey(w.hi, dataFamily, dataKeys)
	rw.next, rw.end = start, dataKeys
	var parent int32 = -1
	var s0 int64
	if w.tr != nil {
		s0 = w.tr.now()
		parent = w.tr.open(opScan, clsNone, s0)
	}
	t0 := time.Now()
	n, child, err := st.Scan(w.key, w.hi, limit, rw.visit, w.tr, parent)
	d := time.Since(t0)
	w.lat[opScan][clsNone].recordDur(d)
	w.ops++
	if err != nil {
		w.failed++
		w.failedBy[opScan]++
		if w.firstErr == nil {
			w.firstErr = err
		}
		return
	}
	if w.tr != nil {
		w.tr.close(parent, opScan, clsNone, s0, s0+int64(d), child, n)
	}
	want := limit
	if rem := int(dataKeys - start); rem < want {
		want = rem
	}
	if n != want {
		rw.scanFail("scan from id %d with limit %d returned %d keys, want %d", start, limit, n, want)
	}
}

// failedOf counts the failed operations of one kind.
func failedOf(ws []*worker, op opKind) int64 {
	var n int64
	for _, w := range ws {
		n += w.failedBy[op]
	}
	return n
}

// checkCounters compares every counter with the benchmark's own tally of
// acknowledged increments.
func checkCounters(read func(c int) (uint64, bool, error), rws []*rmwWorker) error {
	for c := 0; c < counterKeys; c++ {
		var want uint64
		for _, rw := range rws {
			want += uint64(rw.tally[c])
		}
		got, ok, err := read(c)
		if err != nil {
			return fmt.Errorf("read counter %d: %w", c, err)
		}
		if !ok && want != 0 || got != want {
			return fmt.Errorf("counter %d reads %d (present %v), %d increments were acknowledged", c, got, ok, want)
		}
	}
	return nil
}

// checkCallbacks checks that the RMW callback ran once per acknowledged
// RMW plus once per retry the engine counted.
func checkCallbacks(calls, rmws, retries int64) error {
	if calls != rmws+retries {
		return fmt.Errorf("RMW callback ran %d times; %d RMWs + %d engine-counted retries = %d",
			calls, rmws, retries, rmws+retries)
	}
	return nil
}
