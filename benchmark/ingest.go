package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"clsm"
)

// ingest: the key space, about eleven times the 4 MiB memtable, is loaded
// and compacted first; then every client overwrites small values on
// uniform keys of it, with the default asynchronous WAL, for a fixed
// number of operations per second of --seconds. Flush, compaction and the
// admission throttle do the work (the paper's Fig. 5). The preload makes
// every flush merge into a full bottom level, as in a store that has been
// running, and gives set-up real work to time.
const (
	ingestKeys      = 400_000
	ingestValue     = 100
	ingestOpsPerSec = 300_000
	ingestFamily    = 'i'
)

func runIngest(e *runEnv) (int64, int64, error) {
	dir := filepath.Join(e.tmp, "db")
	total := ingestOpsPerSec * e.seconds
	perWorker := total / e.clients
	total = perWorker * e.clients
	owned := ingestKeys / e.clients

	// Writers own disjoint keys (id mod clients), so the last value of
	// every key is known: model[id] is the version last acknowledged, 1
	// for the preload.
	model := make([]uint64, ingestKeys)
	for i := range model {
		model[i] = 1
	}
	ids := make([][]uint32, e.clients)
	epoch := time.Now()
	ws := make([]*worker, e.clients)
	for i := range ws {
		ws[i] = newWorker(i, e.seed, ingestValue, e.trace, epoch)
		ids[i] = make([]uint32, perWorker)
		for j := range ids[i] {
			ids[i][j] = uint32(i + e.clients*ws[i].rng.intn(owned))
		}
	}
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
	if err := loadDataset(db, &r, ingestFamily, ingestKeys, 1, ingestValue); err != nil {
		return 0, 0, err
	}
	if err := db.CompactRange(); err != nil {
		return 0, 0, fmt.Errorf("compact after load: %w", err)
	}
	st := dbStore{db}
	before, err := takeSnap(db)
	if err != nil {
		return 0, 0, err
	}
	evl.start()
	debt := pollDebt(db)
	e.setupDone()

	elapsed := runAll(ws, func(w *worker) { ingestWorker(st, w, ids[w.id], model) })
	// Write amplification counts the background work the puts caused, so
	// the window closes once flushes and compactions have settled.
	if err := waitIdle(db, 120*time.Second); err != nil {
		return 0, 0, err
	}
	debtMax := debt.stop()
	evs := evl.stop()
	after, err := takeSnap(db)
	if err != nil {
		return 0, 0, err
	}
	failed := e.failures(ws)
	ops := opCounts{puts: int64(total)}

	all, writes, byOp := latencies(ws)
	e.rep.set("ops_per_s", float64(total)/elapsed.Seconds(), "ops/s", uint64(total))
	e.latencyMetrics(&all, &writes, &byOp)
	logical := uint64(total) * (keyLen + ingestValue)
	live := uint64(ingestKeys) * (keyLen + ingestValue)
	diskAll, diskTables, err := dirBytes(dir)
	if err != nil {
		return 0, 0, err
	}
	wchar := after.io.wchar - before.io.wchar
	e.rep.set("write_amp", float64(wchar)/float64(logical), "B/B", uint64(total))
	e.rep.set("space_amp", float64(diskAll)/float64(live), "B/B", 1)
	e.rep.set("drain_s", after.at.Sub(before.at).Seconds()-elapsed.Seconds(), "s", 1)
	if err := e.engineLayers(db, before, after, ops, evs, debtMax, dir); err != nil {
		return 0, 0, err
	}
	if err := e.traceLayers(tracers(ws), int64(total)); err != nil {
		return 0, 0, err
	}

	// The kernel saw at least the logical bytes (WAL) plus every byte the
	// engine says flushes and compactions wrote.
	engineBytes := (after.m.FlushBytes - before.m.FlushBytes) + (after.m.CompactionBytes - before.m.CompactionBytes)
	if err := checkWriteBytes(wchar, logical, engineBytes); err != nil {
		e.problem("ingest: %v", err)
	}
	if err := checkTableBytes(diskTables, after.m.DiskBytes); err != nil {
		e.problem("ingest: %v", err)
	}
	if err := db.Close(); err != nil {
		db = nil
		return 0, 0, fmt.Errorf("close: %w", err)
	}
	db = nil
	db, err = openStore(dir, &evl)
	if err != nil {
		return 0, 0, err
	}
	it, err := db.NewIterator()
	if err != nil {
		return 0, 0, err
	}
	checkErr := checkIngestScan(it, model)
	it.Close()
	if err := it.Err(); err != nil {
		return 0, 0, fmt.Errorf("scan after reopen: %w", err)
	}
	if checkErr != nil {
		e.problem("ingest: %v", checkErr)
	}
	return int64(total), failed, nil
}

// ingestWorker puts ids in order, each at the version of its position
// plus one (the preload is version 1), and records every acknowledged
// version in model.
func ingestWorker(st store, w *worker, ids []uint32, model []uint64) {
	for j, id := range ids {
		version := uint64(j + 2)
		putKey(w.key, ingestFamily, uint64(id))
		putValue(w.val, uint64(id), version)
		start := time.Now()
		err := st.Put(w.key, w.val)
		w.done(opPut, clsNone, start, err)
		if err == nil {
			model[id] = version
		}
	}
}

// checkWriteBytes checks that the kernel saw the process write at least
// the logical bytes put (the WAL) plus every byte the engine says its
// flushes and compactions wrote.
func checkWriteBytes(wchar, logical, engine uint64) error {
	if wchar < logical+engine {
		return fmt.Errorf("kernel wchar %d < logical %d + flush/compaction bytes %d", wchar, logical, engine)
	}
	return nil
}

// checkTableBytes compares the sorted-table bytes a directory walk found
// with Metrics().DiskBytes, once background work is idle.
func checkTableBytes(walked, reported uint64) error {
	if walked != reported {
		return fmt.Errorf("sorted tables on disk hold %d bytes, Metrics().DiskBytes says %d", walked, reported)
	}
	return nil
}

// scanner is the part of an iterator checkIngestScan reads.
type scanner interface {
	First()
	Valid() bool
	Key() []byte
	Value() []byte
	Next()
}

// checkIngestScan reads the whole store in order and compares it with the
// model: keys strictly ascending, exactly the keys the model holds, each
// with the value of its last acknowledged version.
func checkIngestScan(it scanner, model []uint64) error {
	var prev []byte
	seen := 0
	for it.First(); it.Valid(); it.Next() {
		k := it.Key()
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			return fmt.Errorf("scan not strictly ascending: %q after %q", k, prev)
		}
		prev = append(prev[:0], k...)
		id, ok := keyID(k, ingestFamily)
		if !ok || id >= uint64(len(model)) {
			return fmt.Errorf("scan returned unknown key %q", k)
		}
		if model[id] == 0 {
			return fmt.Errorf("scan returned key %q that was never written", k)
		}
		v, ok := checkValue(it.Value(), id, ingestValue)
		if !ok {
			return fmt.Errorf("key %q holds a corrupt or foreign value", k)
		}
		if v != model[id] {
			return fmt.Errorf("key %q holds version %d, last acknowledged %d", k, v, model[id])
		}
		seen++
	}
	want := 0
	for _, v := range model {
		if v != 0 {
			want++
		}
	}
	if seen != want {
		return fmt.Errorf("scan returned %d keys, model holds %d", seen, want)
	}
	return nil
}

var _ scanner = (*clsm.Iterator)(nil)
