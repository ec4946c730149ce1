package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// read_hot: a dataset about twice the 32 MiB block cache, loaded and
// settled before the timed phase; then every client runs 95 % Get and 5 %
// Put. Gets ask for a contiguous hot tenth of the keys 90 % of the time
// (its blocks fit the cache) and for the rest otherwise; a fixed tenth of
// the Gets ask for keys never written, which fall between written ones so
// that every lookup reaches the sorted tables (the paper's Fig. 6).
const (
	hotKeys    = 560_000 // present keys: ids 0, 2, 4, ...; odd ids are never written
	hotValue   = 100
	hotFamily  = 'h'
	loadBatch  = 1000
	hotPerMill = 100 // hot set: this many per mill of the present keys
)

// One round of every read_hot client, in a seeded order.
var hotRound = []struct {
	n     int
	op    opKind
	class keyClass
}{
	{10, opPut, clsCold},
	{19, opGet, clsAbsent},
	{154, opGet, clsHot},
	{17, opGet, clsCold},
}

func runReadHot(e *runEnv) (int64, int64, error) {
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
	if err := loadDataset(db, &r, hotFamily, hotKeys, 2, hotValue); err != nil {
		return 0, 0, err
	}
	hotN := hotKeys * hotPerMill / 1000
	hotLo := r.intn(hotKeys - hotN)
	// Compact, close and reopen, so the timed phase starts from the same
	// tree shape on every run, a cold cache and fresh engine histograms.
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
	// Warm the hot set into the cache.
	key := make([]byte, keyLen)
	for j := hotLo; j < hotLo+hotN; j++ {
		if _, _, err := db.Get(putKey(key, hotFamily, uint64(2*j))); err != nil {
			return 0, 0, fmt.Errorf("warm-up get: %w", err)
		}
	}
	if err := waitIdle(db, 120*time.Second); err != nil {
		return 0, 0, err
	}

	epoch := time.Now()
	ws := make([]*worker, e.clients)
	for i := range ws {
		ws[i] = newWorker(i, e.seed, hotValue, e.trace, epoch)
	}
	h := newHotLoad(dbStore{db}, hotKeys, hotLo, hotN, e.clients)
	before, err := takeSnap(db)
	if err != nil {
		return 0, 0, err
	}
	evl.start()
	debt := pollDebt(db)
	e.setupDone()

	elapsed := runTimed(ws, time.Duration(e.seconds)*time.Second, h.round)
	debtMax := debt.stop()
	evs := evl.stop()
	after, err := takeSnap(db)
	if err != nil {
		return 0, 0, err
	}
	failed := e.failures(ws)
	all, writes, byOp := latencies(ws)
	ops := opCounts{puts: int64(byOp[opPut].n), gets: int64(byOp[opGet].n)}
	e.rep.set("ops_per_s", float64(ops.total())/elapsed.Seconds(), "ops/s", uint64(ops.total()))
	e.latencyMetrics(&all, &writes, &byOp)
	e.writeSpaceAmp(dir, before, after, ops.puts, uint64(ops.puts)*(keyLen+hotValue), uint64(hotKeys)*(keyLen+hotValue))
	if err := e.engineLayers(db, before, after, ops, evs, debtMax, dir); err != nil {
		return 0, 0, err
	}
	if err := e.traceLayers(tracers(ws), ops.total()); err != nil {
		return 0, 0, err
	}
	if err := h.check(ops.gets - failed); err != nil {
		e.problem("read_hot: %v", err)
	}
	return ops.total(), failed, nil
}

// hotLoad is the state of read_hot's timed loop: the key layout, each
// worker's round and the answers its Gets got.
type hotLoad struct {
	st          store
	keys        int // present keys have ids 2j, j in [0, keys)
	hotLo, hotN int // the hot set: j in [hotLo, hotLo+hotN)
	rounds      [][]int
	found       []int64
	notFound    []int64
	wantFound   []int64
	bad         []int64
	versions    []uint64
}

func newHotLoad(st store, keys, hotLo, hotN, clients int) *hotLoad {
	h := &hotLoad{st: st, keys: keys, hotLo: hotLo, hotN: hotN,
		rounds: make([][]int, clients), found: make([]int64, clients), notFound: make([]int64, clients),
		wantFound: make([]int64, clients), bad: make([]int64, clients), versions: make([]uint64, clients)}
	for i := range h.rounds {
		for s, part := range hotRound {
			for k := 0; k < part.n; k++ {
				h.rounds[i] = append(h.rounds[i], s)
			}
		}
	}
	return h
}

// round runs one round of worker w's operations in a seeded order.
func (h *hotLoad) round(w *worker) {
	slots := h.rounds[w.id]
	shuffle(&w.rng, slots)
	for _, s := range slots {
		part := hotRound[s]
		var j int
		if part.class == clsHot {
			j = h.hotLo + w.rng.intn(h.hotN)
		} else {
			j = w.rng.intn(h.keys)
		}
		id := uint64(2 * j)
		if part.class == clsAbsent {
			id++
		}
		putKey(w.key, hotFamily, id)
		if part.op == opPut {
			h.versions[w.id]++
			putValue(w.val, id, uint64(w.id+1)<<40|h.versions[w.id])
			start := time.Now()
			err := h.st.Put(w.key, w.val)
			w.done(opPut, clsNone, start, err)
			continue
		}
		start := time.Now()
		v, ok, err := h.st.Get(w.key)
		w.done(opGet, part.class, start, err)
		if err != nil {
			continue
		}
		if part.class != clsAbsent {
			h.wantFound[w.id]++
		}
		if !ok {
			h.notFound[w.id]++
			continue
		}
		h.found[w.id]++
		if _, valid := checkValue(v, id, hotValue); !valid || part.class == clsAbsent {
			h.bad[w.id]++
		}
	}
}

// check compares the answers of all gets that did not fail with the
// generator's split.
func (h *hotLoad) check(gets int64) error {
	var found, notFound, want, bad int64
	for i := range h.found {
		found += h.found[i]
		notFound += h.notFound[i]
		want += h.wantFound[i]
		bad += h.bad[i]
	}
	return checkReadHot(found, notFound, want, gets, bad)
}

// checkReadHot compares the Gets' answers with the generator's split:
// every present key found with a valid value of its own, every absent key
// not found.
func checkReadHot(found, notFound, wantFound, gets, bad int64) error {
	if bad > 0 {
		return fmt.Errorf("%d gets returned a corrupt, foreign or never-written value", bad)
	}
	if found != wantFound || found+notFound != gets {
		return fmt.Errorf("gets found %d and missed %d keys; the generator asked for %d present and %d absent",
			found, notFound, wantFound, gets-wantFound)
	}
	return nil
}

// writeSpaceAmp reports write amplification (bytes the process wrote to
// files per logical byte put during the phase) and space amplification
// (bytes on disk per live logical byte).
func (e *runEnv) writeSpaceAmp(dir string, b, a engineSnap, writes int64, logical, live uint64) {
	if logical > 0 {
		e.rep.set("write_amp", float64(a.io.wchar-b.io.wchar)/float64(logical), "B/B", uint64(writes))
	}
	if total, _, err := dirBytes(dir); err == nil && live > 0 {
		e.rep.set("space_amp", float64(total)/float64(live), "B/B", 1)
	}
}
