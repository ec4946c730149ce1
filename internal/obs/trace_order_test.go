package obs

import (
	"sync"
	"testing"
)

// TestTraceConcurrentStampsAgree records from several goroutines at once and
// checks that Seq order and Time order agree across the whole timeline: the
// event stream is read as one ordered history, so a later Seq must never
// carry an earlier Time.
func TestTraceConcurrentStampsAgree(t *testing.T) {
	const writers, perWriter = 4, 2000
	var tr Trace
	tr.SetCapacity(writers * perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Record(Event{Type: EvFlushStart})
			}
		}()
	}
	wg.Wait()
	events := tr.Events()
	if len(events) != writers*perWriter {
		t.Fatalf("recorded %d events, want %d", len(events), writers*perWriter)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time.Before(events[i-1].Time) {
			t.Fatalf("event seq %d stamped %v, before seq %d at %v",
				events[i].Seq, events[i].Time, events[i-1].Seq, events[i-1].Time)
		}
	}
}
