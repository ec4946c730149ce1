//go:build !race

// Allocation-regression tests for the hot paths. They are excluded under
// the race detector, which instruments allocations and inflates the
// counts; scripts/check.sh runs them in a separate non-race pass.

package core

import (
	"fmt"
	"runtime"
	"testing"

	"clsm/internal/storage"
)

// TestWritePathAllocs pins the put hot path at ≤ 1 allocation per
// operation: the skip-list node. Batch encoding goes into a pooled WAL
// buffer whose ownership transfers to the logger, the internal-key scratch
// is pooled, and the logger's request/buffer/channel machinery is fully
// recycled. (The rare extras — arena chunk growth, the 1-in-256 tall
// skip-list tower — vanish in AllocsPerRun's integer average.)
//
// AllocsPerRun counts mallocs across the whole process, so the WAL drain
// goroutine's per-group and per-record work (framing, checksumming, the
// group commit) falls inside this same budget. With more than one P the
// drain keeps pace with the producer and most groups hold one record, so
// any per-group allocation there reads as a full extra allocation per
// put; internal/wal's TestCommitGroupAllocs pins that layer at zero.
func TestWritePathAllocs(t *testing.T) {
	opts := testOptions(storage.NewMemFS())
	opts.MemtableSize = 256 << 20 // no rotation during the measurement
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	key := []byte("alloc-test-key")
	value := []byte("alloc-test-value-0123456789abcdef")
	// Warm the pools and the arena.
	for i := 0; i < 2000; i++ {
		if err := db.Put(key, value); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce: a collection landing inside the window flushes the pools
	// and shows up as phantom per-op allocations.
	runtime.GC()
	allocs := testing.AllocsPerRun(5000, func() {
		if err := db.Put(key, value); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Put allocates %.0f times per op, want <= 1", allocs)
	}
}

// TestGetPathAllocs pins the read hot path for a cache-hit Pd lookup at
// ≤ 1 allocation per operation: the seek key is pooled scratch, the
// skip-list misses on Pm/P'm are allocation-free virtual-key seeks, and
// the SSTable point read runs on a pooled block-iterator pair over cached
// blocks.
func TestGetPathAllocs(t *testing.T) {
	opts := testOptions(storage.NewMemFS())
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const n = 512
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%06d", i)
		if err := db.Put([]byte(k), []byte("value-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	// Push everything into the disk component so gets exercise Pd.
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	key := []byte("key000256")
	// Warm the block cache and the iterator pools.
	for i := 0; i < 200; i++ {
		if _, ok, err := db.Get(key); err != nil || !ok {
			t.Fatalf("warmup Get = %v, %v", ok, err)
		}
	}
	runtime.GC()
	allocs := testing.AllocsPerRun(5000, func() {
		v, ok, err := db.Get(key)
		if err != nil || !ok || len(v) == 0 {
			t.Fatalf("Get = %q, %v, %v", v, ok, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Get allocates %.0f times per op, want <= 1", allocs)
	}
}

// TestWritePathAllocsWithThreshold re-pins the put gate with key-value
// separation enabled: a value below the threshold must take the identical
// inline path — the routing decision is a length compare, not an
// allocation.
func TestWritePathAllocsWithThreshold(t *testing.T) {
	opts := testOptions(storage.NewMemFS())
	opts.MemtableSize = 256 << 20
	opts.ValueThreshold = 1024
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	key := []byte("alloc-test-key")
	value := []byte("alloc-test-value-0123456789abcdef") // 33 B, well inline
	for i := 0; i < 2000; i++ {
		if err := db.Put(key, value); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	allocs := testing.AllocsPerRun(5000, func() {
		if err := db.Put(key, value); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Put with threshold allocates %.0f times per op, want <= 1", allocs)
	}
}

// TestGetPathAllocsWithThreshold re-pins the read gate with separation
// enabled: inline values never consult the value log, so the cache-hit Pd
// lookup keeps its budget.
func TestGetPathAllocsWithThreshold(t *testing.T) {
	opts := testOptions(storage.NewMemFS())
	opts.ValueThreshold = 1024
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const n = 512
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%06d", i)
		if err := db.Put([]byte(k), []byte("value-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	key := []byte("key000256")
	for i := 0; i < 200; i++ {
		if _, ok, err := db.Get(key); err != nil || !ok {
			t.Fatalf("warmup Get = %v, %v", ok, err)
		}
	}
	runtime.GC()
	allocs := testing.AllocsPerRun(5000, func() {
		v, ok, err := db.Get(key)
		if err != nil || !ok || len(v) == 0 {
			t.Fatalf("Get = %q, %v, %v", v, ok, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Get with threshold allocates %.0f times per op, want <= 1", allocs)
	}
}

// TestTxnReadAllocs pins the transactional read path — a snapshot get
// inside an open Txn — at ≤ 1 allocation per operation, same budget as the
// plain Get gate. The read-set and write-buffer probes are map lookups
// keyed by an unretained string(key) conversion (no allocation), the
// read-set insert amortizes to zero over repeat reads, and the underlying
// GetAt is the pinned Pd path.
func TestTxnReadAllocs(t *testing.T) {
	opts := testOptions(storage.NewMemFS())
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const n = 512
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%06d", i)
		if err := db.Put([]byte(k), []byte("value-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	txn, err := db.BeginTxn()
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Rollback()
	key := []byte("key000256")
	for i := 0; i < 200; i++ {
		if _, ok, err := txn.Get(key); err != nil || !ok {
			t.Fatalf("warmup txn.Get = %v, %v", ok, err)
		}
	}
	runtime.GC()
	allocs := testing.AllocsPerRun(5000, func() {
		v, ok, err := txn.Get(key)
		if err != nil || !ok || len(v) == 0 {
			t.Fatalf("txn.Get = %q, %v, %v", v, ok, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("txn.Get allocates %.0f times per op, want <= 1", allocs)
	}
}
