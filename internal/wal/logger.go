package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"clsm/internal/obs"
	"clsm/internal/storage"
)

// ErrLoggerClosed is returned by Append/Flush after Close has drained the
// logger.
var ErrLoggerClosed = errors.New("wal: logger closed")

// groupFlushBytes bounds how many framed bytes a commit group accumulates
// before the drain pushes them to the file mid-group. It only splits the
// physical writes, never the group's single Sync.
const groupFlushBytes = 1 << 20

// maxAsyncBacklog bounds the in-flight async queue. Past it, producers
// yield to the drain rather than enqueueing ever deeper: that caps queue
// memory when writers outrun the device, and it lets the drain recycle
// requests back into the pools, which keeps the enqueue path
// allocation-free even for a producer in a tight loop.
const maxAsyncBacklog = 1024

// Logger is the engine-facing logging front end. Writers enqueue records on
// a lock-free list and return immediately (asynchronous logging, the
// LevelDB/cLSM default); a dedicated goroutine group-commits the backlog:
// on each wakeup it grabs *everything* enqueued, frames it into one
// buffered write, issues at most one Sync for the whole group, and then
// completes every waiter at once. Sync-mode throughput is therefore
// O(groups) device syncs rather than O(records) — the write-group /
// pipelined-WAL design of LevelDB and RocksDB, adapted to cLSM's
// lock-free enqueue.
//
// Enqueue order is the durability order; since cLSM stamps every entry with
// its timestamp, cross-record ordering does not matter for recovery.
//
// The hot path is allocation-free in steady state: requests, record
// buffers, and completion channels are all pool-recycled, and ownership of
// an AppendOwned buffer transfers to the logger, which releases it after
// the group is written. That covers the drain side too: framing seeds each
// fragment's checksum from a table, and a successful group commit
// allocates nothing. The engine's put allocation gates count process-wide
// mallocs, so any per-group or per-record allocation in the drain is
// charged to Put — once per put when groups hold a single record, as they
// do whenever the drain runs on its own P.
type Logger struct {
	w *Writer

	// head is an intrusive Treiber list of pending requests. Producers
	// push with a CAS; the single drain goroutine takes the whole backlog
	// with one Swap(nil) and reverses it to FIFO order. Push-only CAS plus
	// wholesale Swap is immune to the ABA hazard that forbids node reuse
	// in pop-one lock-free stacks, so requests can be pool-recycled.
	head atomic.Pointer[logReq]

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
	sync bool

	err     atomic.Pointer[error]
	pending atomic.Int64

	// appends and syncs, when wired via Instrument, count enqueued
	// records and device syncs on the engine's observer; groupSize
	// records the number of records committed per group.
	appends, syncs *obs.Counter
	groupSize      *obs.Histogram

	// waiters is commitGroup's scratch for the group's completion
	// channels. Only the drain goroutine touches it (sweep runs after the
	// drain has exited), so reusing it across groups is race-free.
	waiters []chan error
}

// logReq is one pending logger request: a record to append, a flush
// barrier (buf == nil), or both roles combined at Close time.
type logReq struct {
	next *logReq
	buf  *[]byte    // owned record buffer, nil for flush barriers
	done chan error // non-nil for sync-mode appends and flush barriers
}

var (
	reqPool = sync.Pool{New: func() any { return new(logReq) }}
	// Fresh buffers start with room for a typical point-write record so a
	// pool miss costs one backing array, not a chain of append growths.
	bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}
	// doneChPool recycles completion channels: each is used for exactly
	// one send and one receive, so a returned channel is always empty.
	doneChPool = sync.Pool{New: func() any { return make(chan error, 1) }}
)

// GetBuf returns a pooled, empty record buffer. Encode the record into
// (*buf)[:0] and hand it to AppendOwned, which releases it back to the
// pool once the record is on disk (or on the error path).
func GetBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuf returns a buffer obtained from GetBuf that was never passed to
// AppendOwned (e.g. the engine encoded a record and then discovered the
// WAL is disabled).
func PutBuf(buf *[]byte) {
	bufPool.Put(buf)
}

// NewLogger starts the drain goroutine over a fresh log file. If syncMode
// is true every Append waits for durability.
func NewLogger(f storage.File, syncMode bool) *Logger {
	l := &Logger{
		w:    NewWriter(f, false),
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
		sync: syncMode,
	}
	go l.drain()
	return l
}

// Instrument wires append/sync counters and the group-size histogram
// (typically the owning engine's observer). Call right after NewLogger,
// before the logger is shared between writers.
func (l *Logger) Instrument(appends, syncs *obs.Counter, groupSize *obs.Histogram) {
	l.appends, l.syncs, l.groupSize = appends, syncs, groupSize
}

// Append logs one record. In async mode it only enqueues; the copy is taken
// so the caller may reuse rec.
func (l *Logger) Append(rec []byte) error {
	buf := GetBuf()
	*buf = append((*buf)[:0], rec...)
	return l.AppendOwned(buf)
}

// AppendOwned logs the record held in buf, taking ownership of the buffer
// (obtained from GetBuf); the logger releases it after the record's group
// is written, so the caller performs no copy and no allocation. In sync
// mode AppendOwned blocks until the record's group has reached the device.
func (l *Logger) AppendOwned(buf *[]byte) error {
	if e := l.err.Load(); e != nil {
		PutBuf(buf)
		return *e
	}
	var done chan error
	if l.sync {
		done = doneChPool.Get().(chan error)
	}
	r := reqPool.Get().(*logReq)
	r.buf, r.done = buf, done
	l.pending.Add(1)
	l.push(r)
	if l.appends != nil {
		l.appends.Inc()
	}
	l.notify()
	if done != nil {
		err := <-done
		doneChPool.Put(done)
		return err
	}
	if l.pending.Load() > maxAsyncBacklog {
		// Async backpressure: give the drain a chance to commit (and
		// recycle) the backlog before this producer enqueues more.
		runtime.Gosched()
	}
	return nil
}

// Flush blocks until everything enqueued before the call is on disk. A
// flush barrier forces its group's Sync even in async mode.
func (l *Logger) Flush() error {
	if e := l.err.Load(); e != nil {
		return *e
	}
	done := doneChPool.Get().(chan error)
	r := reqPool.Get().(*logReq)
	r.buf, r.done = nil, done
	l.pending.Add(1)
	l.push(r)
	l.notify()
	err := <-done
	doneChPool.Put(done)
	return err
}

// Pending returns the approximate queue depth (metrics).
func (l *Logger) Pending() int64 { return l.pending.Load() }

// Close drains outstanding records, syncs, and closes the file. Records
// that race with Close are written and synced by the final sweep before
// the file is released.
func (l *Logger) Close() error {
	flushErr := l.Flush()
	close(l.quit)
	<-l.done
	// The drain goroutine has exited; mark the logger closed so late
	// Appends fail fast instead of parking on a dead queue, then sweep
	// any request that slipped in between the drain's last Swap and now.
	errClosed := ErrLoggerClosed
	l.err.CompareAndSwap(nil, &errClosed)
	l.sweep()
	if err := l.w.Close(); err != nil {
		return err
	}
	return flushErr
}

func (l *Logger) push(r *logReq) {
	for {
		old := l.head.Load()
		r.next = old
		if l.head.CompareAndSwap(old, r) {
			return
		}
	}
}

func (l *Logger) notify() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

func (l *Logger) drain() {
	defer close(l.done)
	for {
		backlog := l.head.Swap(nil)
		if backlog == nil {
			select {
			case <-l.wake:
				continue
			case <-l.quit:
				l.sweep()
				return
			}
		}
		l.commitGroup(backlog, false)
	}
}

// sweep drains requests racing with Close: everything still enqueued is
// committed with a forced Sync (even in async mode), so no record written
// after the final Flush's sync is left without one of its own.
func (l *Logger) sweep() {
	for {
		backlog := l.head.Swap(nil)
		if backlog == nil {
			return
		}
		l.commitGroup(backlog, true)
	}
}

// commitGroup writes one grabbed backlog as a single commit group: reverse
// the push-ordered list to FIFO, frame every record into the writer's
// buffer (spilling to the file only past groupFlushBytes), push the frames
// with one write, issue at most one Sync for the whole group, and complete
// every waiter with the group's outcome. A write or sync failure fails the
// whole group and poisons the logger for subsequent appends.
func (l *Logger) commitGroup(backlog *logReq, forceSync bool) {
	// Reverse the Treiber list: push order is the linearization order, so
	// the reversed list is exact FIFO — per-producer order included.
	var first *logReq
	for r := backlog; r != nil; {
		next := r.next
		r.next = first
		first = r
		r = next
	}

	var (
		groupErr error
		records  int64
		count    int64
		flush    bool
	)
	waiters := l.waiters[:0]
	for r := first; r != nil; {
		next := r.next
		if r.buf != nil {
			if groupErr == nil {
				l.w.Queue(*r.buf)
				if l.w.Buffered() >= groupFlushBytes {
					groupErr = l.w.FlushQueued()
				}
			}
			*r.buf = (*r.buf)[:0]
			bufPool.Put(r.buf)
			records++
		} else {
			flush = true
		}
		if r.done != nil {
			waiters = append(waiters, r.done)
		}
		count++
		r.buf, r.done, r.next = nil, nil, nil
		reqPool.Put(r)
		r = next
	}

	if groupErr == nil {
		groupErr = l.w.FlushQueued()
	}
	needSync := flush || forceSync || (l.sync && records > 0)
	if groupErr == nil && needSync {
		groupErr = l.w.Sync()
		if l.syncs != nil {
			l.syncs.Inc()
		}
	}
	if groupErr != nil {
		// Wrap once with the failing subsystem so the health classifier's
		// callers see where a transient errno came from; %w keeps the
		// underlying sentinel reachable for errors.Is.
		groupErr = fmt.Errorf("wal: commit group: %w", groupErr)
		// Publish a copy's address, not &groupErr: taking groupErr's own
		// address would move it to the heap for every group, successful
		// ones included.
		poison := groupErr
		l.err.CompareAndSwap(nil, &poison)
	}
	if records > 0 && l.groupSize != nil {
		l.groupSize.RecordValue(uint64(records))
	}
	for i, ch := range waiters {
		ch <- groupErr
		waiters[i] = nil
	}
	l.waiters = waiters[:0]
	l.pending.Add(-count)
}
