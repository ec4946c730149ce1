package main

import (
	"fmt"
	"time"

	"clsm"
)

// store is the part of the engine's public surface the closed-loop
// workloads call. dbStore adapts *clsm.DB; tests substitute stubs to
// check the timed loops themselves.
type store interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, bool, error)
	RMW(key []byte, f func(old []byte, exists bool) []byte) error
	// Scan reads up to limit keys of [lo, hi) from a fresh snapshot,
	// calling visit for each, and records the snapshot, step and close
	// child spans under parent when tr is not nil. It returns the number
	// of keys visited and the nanoseconds the child spans covered.
	Scan(lo, hi []byte, limit int, visit func(k, v []byte), tr *tracer, parent int32) (n int, childNs int64, err error)
}

type dbStore struct{ db *clsm.DB }

func (s dbStore) Put(key, value []byte) error          { return s.db.Put(key, value) }
func (s dbStore) Get(key []byte) ([]byte, bool, error) { return s.db.Get(key) }
func (s dbStore) RMW(key []byte, f func([]byte, bool) []byte) error {
	return s.db.RMW(key, f)
}

func (s dbStore) Scan(lo, hi []byte, limit int, visit func(k, v []byte), tr *tracer, parent int32) (int, int64, error) {
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	snap, err := s.db.GetSnapshot()
	if err != nil {
		return 0, 0, err
	}
	it, err := snap.NewIterator(clsm.IterOptions{LowerBound: lo, UpperBound: hi})
	if err != nil {
		snap.Close()
		return 0, 0, err
	}
	it.Seek(lo)
	var child int64
	if tr != nil {
		t1 := tr.now()
		tr.add(opSnapshot, clsNone, t0, t1, parent)
		child += t1 - t0
		t0 = t1
	}
	n := 0
	for ; n < limit && it.Valid(); n++ {
		visit(it.Key(), it.Value())
		if n+1 < limit {
			it.Next()
		}
		if tr != nil {
			t1 := tr.now()
			tr.add(opNext, clsNone, t0, t1, parent)
			child += t1 - t0
			t0 = t1
		}
	}
	err = it.Err()
	it.Close()
	snap.Close()
	if tr != nil {
		t1 := tr.now()
		tr.add(opClose, clsNone, t0, t1, parent)
		child += t1 - t0
	}
	return n, child, err
}

// worker is one closed-loop client: its own random stream, latency
// histograms per operation kind and key class, and an optional tracer.
type worker struct {
	id  int
	rng rng
	lat [numOps][numClasses]hist
	tr  *tracer

	ops, failed int64
	failedBy    [numOps]int64
	firstErr    error

	key, hi, val []byte
}

func newWorker(id int, seed uint64, valSize int, trace bool, epoch time.Time) *worker {
	w := &worker{
		id:  id,
		rng: newRNG(seed, uint64(100+id)),
		key: make([]byte, keyLen),
		hi:  make([]byte, keyLen),
		val: make([]byte, valSize),
	}
	if trace {
		w.tr = newTracer(epoch)
	}
	return w
}

// done records one finished call of op on class that started at start
// (time.Now before the call); err counts it as failed.
func (w *worker) done(op opKind, class keyClass, start time.Time, err error) {
	d := time.Since(start)
	w.lat[op][class].recordDur(d)
	w.ops++
	if err != nil {
		w.failed++
		w.failedBy[op]++
		if w.firstErr == nil {
			w.firstErr = err
		}
	}
	if w.tr != nil {
		s := int64(start.Sub(w.tr.epoch))
		w.tr.add(op, class, s, s+int64(d), -1)
	}
}

// latencies merges every worker's histograms: all operations, writes
// (Put and RMW), and each operation kind.
func latencies(ws []*worker) (all, writes hist, byOp [numOps]hist) {
	for _, w := range ws {
		for op := range w.lat {
			for c := range w.lat[op] {
				h := &w.lat[op][c]
				all.merge(h)
				byOp[op].merge(h)
				if opKind(op) == opPut || opKind(op) == opRMW {
					writes.merge(h)
				}
			}
		}
	}
	return all, writes, byOp
}

// loadDataset writes n keys of family with ids stride*j, j in [0, n), in a
// seeded random order, as atomic batches of loadBatch puts, each value at
// version 1.
func loadDataset(db *clsm.DB, r *rng, family byte, n, stride, valSize int) error {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	shuffle(r, order)
	slab := make([]byte, loadBatch*(keyLen+valSize))
	var b clsm.Batch
	for off := 0; off < n; off += loadBatch {
		b.Reset()
		end := off + loadBatch
		if end > n {
			end = n
		}
		for i, j := range order[off:end] {
			rec := slab[i*(keyLen+valSize) : (i+1)*(keyLen+valSize)]
			id := uint64(stride) * uint64(j)
			k := putKey(rec[:keyLen], family, id)
			v := putValue(rec[keyLen:], id, 1)
			b.Put(k, v)
		}
		if err := db.Write(&b); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	return nil
}
