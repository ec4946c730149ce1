package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// EventType classifies engine trace events.
type EventType uint8

// Engine event types, in the order the background machinery emits them.
const (
	EvFlushStart EventType = iota + 1
	EvFlushEnd
	EvCompactionStart
	EvCompactionEnd
	EvStallBegin
	EvStallEnd
	EvSnapshotReclaim
	EvDegraded
	EvResumed
	EvReadOnly
	// Write-throttle lifecycle: the admission controller activated
	// (EvThrottleOn), crossed a 2x rate boundary while tuning
	// (EvThrottleAdjust), or deactivated (EvThrottleOff). Bytes carries
	// the admitted rate in bytes/s. Per-step adjustments are deliberately
	// not traced — the tuner runs every ~10ms.
	EvThrottleOn
	EvThrottleAdjust
	EvThrottleOff
	// Backup lifecycle: a checkpoint+ship cycle started (EvBackupStart),
	// completed with its manifest durable on the remote tier
	// (EvBackupEnd, Bytes = object bytes shipped), or aborted on a fatal
	// remote error after garbage-collecting its partial uploads
	// (EvBackupFailed, Msg = error text).
	EvBackupStart
	EvBackupEnd
	EvBackupFailed
	// EvVlogGC records a completed value-log segment rewrite: Bytes is the
	// retired segment's size, Dur the rewrite's elapsed time.
	EvVlogGC
)

// evLast is the highest defined event type (export iteration bound).
const evLast = EvVlogGC

// String names the event type for timelines and JSON export.
func (t EventType) String() string {
	switch t {
	case EvFlushStart:
		return "flush-start"
	case EvFlushEnd:
		return "flush-end"
	case EvCompactionStart:
		return "compaction-start"
	case EvCompactionEnd:
		return "compaction-end"
	case EvStallBegin:
		return "stall-begin"
	case EvStallEnd:
		return "stall-end"
	case EvSnapshotReclaim:
		return "snapshot-reclaim"
	case EvDegraded:
		return "degraded"
	case EvResumed:
		return "resumed"
	case EvReadOnly:
		return "read-only"
	case EvThrottleOn:
		return "throttle-on"
	case EvThrottleAdjust:
		return "throttle-adjust"
	case EvThrottleOff:
		return "throttle-off"
	case EvBackupStart:
		return "backup-start"
	case EvBackupEnd:
		return "backup-end"
	case EvBackupFailed:
		return "backup-failed"
	case EvVlogGC:
		return "vlog-gc"
	}
	return "unknown"
}

// MarshalJSON exports the type by name, so /debug/vars consumers see
// "flush-start" rather than an opaque code.
func (t EventType) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// StallCause says why a writer stalled (EvStallBegin/EvStallEnd).
type StallCause uint8

// Stall causes, mirroring the three wait sites in makeRoomForWrite.
const (
	CauseNone         StallCause = iota
	CauseL0Slowdown              // soft backpressure: L0 at the slowdown trigger
	CauseL0Stop                  // hard backpressure: L0 at the stop trigger
	CauseMemtableWait            // both memtables full, waiting for the merge
)

// String names the stall cause.
func (c StallCause) String() string {
	switch c {
	case CauseL0Slowdown:
		return "l0-slowdown"
	case CauseL0Stop:
		return "l0-stop"
	case CauseMemtableWait:
		return "memtable-wait"
	}
	return "none"
}

// MarshalJSON exports the cause by name.
func (c StallCause) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.String())
}

// Event is one entry of the engine trace. Fields beyond Seq/Time/Type are
// populated where they make sense: Level for compactions (0 for memtable
// flushes, whose outputs land in L0), Bytes for bytes written by a
// finished flush/compaction (or handles reclaimed for EvSnapshotReclaim),
// Dur for the elapsed time of end events, Cause for stalls, Msg for the
// error text of health transitions (EvDegraded, EvReadOnly).
type Event struct {
	Seq   uint64        `json:"seq"`
	Time  time.Time     `json:"time"`
	Type  EventType     `json:"type"`
	Level int           `json:"level"`
	Bytes uint64        `json:"bytes,omitempty"`
	Dur   time.Duration `json:"dur_ns,omitempty"`
	Cause StallCause    `json:"cause,omitempty"`
	Msg   string        `json:"msg,omitempty"`
	// Shard labels events of a sharded store with the emitting shard's
	// index (Trace.SetShard); 0 on unsharded stores and on shard 0.
	Shard int `json:"shard,omitempty"`
}

// EventSink receives every trace event synchronously, in record order
// (the trace lock is held across the callback to guarantee it). It must
// be fast and must not call back into the store or the trace, or it will
// hold up — or deadlock — flushes and compactions.
type EventSink func(Event)

// DefaultTraceCap is the ring capacity used by a zero-value Trace.
const DefaultTraceCap = 1024

// Trace is a fixed-capacity ring buffer of engine events. Events are rare
// (per flush/compaction/stall episode, not per operation), so a mutex is
// fine here; the sink is invoked under the lock so it observes events in
// record order. The zero value is ready to use.
type Trace struct {
	mu    sync.Mutex
	buf   []Event
	head  int // index of the oldest event
	n     int
	seq   uint64
	sink  EventSink
	shard int
}

// SetShard labels every subsequently recorded event with shard index i
// (sharded stores give each per-shard observer its own label, so an
// aggregated or sink-merged timeline stays attributable).
func (t *Trace) SetShard(i int) {
	t.mu.Lock()
	t.shard = i
	t.mu.Unlock()
}

// SetSink installs (or, with nil, removes) the event callback.
func (t *Trace) SetSink(s EventSink) {
	t.mu.Lock()
	t.sink = s
	t.mu.Unlock()
}

// SetCapacity resizes the ring, dropping buffered events. Calling it after
// events have been recorded is allowed but loses history.
func (t *Trace) SetCapacity(n int) {
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	t.buf = make([]Event, n)
	t.head, t.n = 0, 0
	t.mu.Unlock()
}

// Record appends an event, stamping Seq and (when unset) Time, and then
// delivers it to the sink, if any. Both stamps are taken under the lock so
// that the timeline's Seq order and Time order agree even when concurrent
// recorders race.
func (t *Trace) Record(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if t.buf == nil {
		t.buf = make([]Event, DefaultTraceCap)
	}
	t.seq++
	e.Seq = t.seq
	if e.Shard == 0 {
		e.Shard = t.shard
	}
	if t.n < len(t.buf) {
		t.buf[(t.head+t.n)%len(t.buf)] = e
		t.n++
	} else {
		t.buf[t.head] = e
		t.head = (t.head + 1) % len(t.buf)
	}
	if t.sink != nil {
		t.sink(e)
	}
	t.mu.Unlock()
}

// Events returns the buffered events, oldest first.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.buf[(t.head+i)%len(t.buf)]
	}
	return out
}

// Len returns the number of buffered events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}
