//go:build !race

// Allocation-regression tests for the WAL's steady-state paths. The engine's
// put gates (core and shard TestWritePathAllocs) count process-wide mallocs,
// so whatever the drain goroutine allocates per group or per record is
// charged to Put — and how much of it shows depends on how many records a
// group holds, i.e. on scheduling. These tests drive the framing and the
// group commit directly on the calling goroutine, so they need no second P
// and read the same at any GOMAXPROCS. Excluded under the race detector,
// whose instrumentation allocates.

package wal

import (
	"runtime"
	"testing"

	"clsm/internal/storage"
)

var allocRecord = []byte("alloc-test-key\x00alloc-test-value-0123456789abcdef")

// TestWriterQueueFlushAllocs pins framing plus the physical write at zero
// allocations per record: the per-type CRC seed comes from a table and the
// frame buffer is reused across flushes.
func TestWriterQueueFlushAllocs(t *testing.T) {
	f, err := storage.NewMemFS().Create("000001.log")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, false)
	for i := 0; i < 1000; i++ {
		w.Queue(allocRecord)
		if err := w.FlushQueued(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	allocs := testing.AllocsPerRun(5000, func() {
		w.Queue(allocRecord)
		if err := w.FlushQueued(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Queue+FlushQueued allocates %.0f times per record, want 0", allocs)
	}
}

// TestCommitGroupAllocs pins a one-record async commit group — the common
// case when the drain keeps pace with producers — at zero allocations. The
// logger is built without its drain goroutine so commitGroup runs on the
// test goroutine over a request and buffer recycled through the pools.
func TestCommitGroupAllocs(t *testing.T) {
	f, err := storage.NewMemFS().Create("000001.log")
	if err != nil {
		t.Fatal(err)
	}
	l := &Logger{w: NewWriter(f, false)}
	commitOne := func() {
		buf := GetBuf()
		*buf = append((*buf)[:0], allocRecord...)
		r := reqPool.Get().(*logReq)
		r.buf = buf
		l.pending.Add(1)
		l.commitGroup(r, false)
	}
	for i := 0; i < 1000; i++ {
		commitOne()
	}
	runtime.GC()
	allocs := testing.AllocsPerRun(5000, commitOne)
	if allocs != 0 {
		t.Fatalf("commitGroup allocates %.0f times per one-record group, want 0", allocs)
	}
	if e := l.err.Load(); e != nil {
		t.Fatalf("commit group failed: %v", *e)
	}
	if l.Pending() != 0 {
		t.Fatalf("pending = %d after every group committed, want 0", l.Pending())
	}
}
