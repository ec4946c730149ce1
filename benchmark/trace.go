package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// opKind names a public call the benchmark times.
type opKind uint8

const (
	opPut opKind = iota
	opGet
	opRMW
	opScan     // a whole scan: GetSnapshot, iterator steps, Close
	opSnapshot // child of opScan: GetSnapshot + NewIterator + Seek
	opNext     // child of opScan: one iterator step
	opClose    // child of opScan: iterator and snapshot Close
	numOps
)

var opNames = [numOps]string{"put", "get", "rmw", "scan", "snapshot", "next", "close"}

// keyClass says which part of the key space an operation addressed.
type keyClass uint8

const (
	clsNone keyClass = iota
	clsHot
	clsCold
	clsAbsent
	numClasses
)

var classNames = [numClasses]string{"", "hot", "cold", "absent"}

// span is one timed public call. Times are nanoseconds since the tracer's
// epoch; parent indexes the same worker's spans (-1 for a root).
type span struct {
	start, end int64
	parent     int32
	op         opKind
	class      keyClass
}

// spanCap bounds the spans each worker keeps for the trace file; every
// span, kept or not, feeds the tracer's histograms.
const spanCap = 1 << 16

// tracer records one worker's spans. It is owned by that worker and
// allocation-free after construction.
type tracer struct {
	epoch time.Time
	spans []span
	total int64
	lat   [numOps][numClasses]hist
	self  hist // scan self time: the scan minus its child spans
	keys  hist // keys returned per scan
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, spanCap)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished call and returns its index (-1 when the buffer
// is full and the span was only aggregated).
func (t *tracer) add(op opKind, class keyClass, start, end int64, parent int32) int32 {
	t.total++
	t.lat[op][class].record(uint64(end - start))
	if len(t.spans) == cap(t.spans) {
		return -1
	}
	t.spans = append(t.spans, span{start: start, end: end, parent: parent, op: op, class: class})
	return int32(len(t.spans) - 1)
}

// open reserves a parent span whose end is filled in by close; children
// recorded in between name it as their parent.
func (t *tracer) open(op opKind, class keyClass, start int64) int32 {
	if len(t.spans) == cap(t.spans) {
		return -1
	}
	t.spans = append(t.spans, span{start: start, end: start, parent: -1, op: op, class: class})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(idx int32, op opKind, class keyClass, start, end, childNs int64, keys int) {
	t.total++
	t.lat[op][class].record(uint64(end - start))
	t.self.record(uint64(end - start - childNs))
	t.keys.record(uint64(keys))
	if idx >= 0 {
		t.spans[idx].end = end
	}
}

// mergeTracers folds every worker's histograms into one tracer.
func mergeTracers(ts []*tracer) *tracer {
	m := &tracer{}
	for _, t := range ts {
		m.total += t.total
		for op := range t.lat {
			for c := range t.lat[op] {
				m.lat[op][c].merge(&t.lat[op][c])
			}
		}
		m.self.merge(&t.self)
		m.keys.merge(&t.keys)
	}
	return m
}

// writeTrace writes the kept spans of every worker as JSON lines.
func writeTrace(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace: %w", err)
	}
	w := bufio.NewWriter(f)
	for wi, t := range ts {
		for i, s := range t.spans {
			fmt.Fprintf(w, `{"worker":%d,"id":%d,"parent":%d,"op":%q,"class":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				wi, i, s.parent, opNames[s.op], classNames[s.class], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// spanCost measures what recording one span costs: two clock reads and
// one add, the work a traced call does beyond an untraced one.
func spanCost() time.Duration {
	t := newTracer(time.Now())
	const n = 200000
	start := time.Now()
	for i := 0; i < n; i++ {
		s := t.now()
		t.add(opGet, clsHot, s, t.now(), -1)
		if len(t.spans) == cap(t.spans) {
			t.spans = t.spans[:0]
		}
	}
	return time.Since(start) / n
}
