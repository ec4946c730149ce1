package main

// The vlog profile prices key-value separation (docs/VALUELOG.md). The
// same update-heavy workload runs twice at large (4 KiB) values — once
// inline, once separated — comparing put throughput and the LSM rewrite
// volume per logical byte written (flush + compaction bytes / user
// bytes), the write-amplification axis the value log exists to flatten.
// A third pair runs at small (128 B) values with the threshold enabled
// but not reached, asserting the inline fast path is untouched when the
// feature is configured; that pair is repeated and its ratio reported as
// a median so one slow run cannot fake a cost. Results land in
// BENCH_vlog.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clsm"
	"clsm/internal/harness"
)

// vlogRunResult is one cell of the profile.
type vlogRunResult struct {
	Name       string  `json:"name"`
	ValueSize  int     `json:"value_size"`
	Threshold  int     `json:"threshold"`
	Puts       int     `json:"puts"`
	Seconds    float64 `json:"seconds"`
	PutsPerSec float64 `json:"puts_per_sec"`
	// LogicalBytes is the user key+value volume written; RewriteBytes the
	// flush+compaction volume the LSM spent absorbing it. Their ratio is
	// the profile's write-amplification signal.
	RewriteBytes      uint64  `json:"rewrite_bytes"`
	LogicalBytes      uint64  `json:"logical_bytes"`
	RewritePerLogical float64 `json:"rewrite_per_logical"`
	VlogSegments      int     `json:"vlog_segments"`
	VlogGCRuns        uint64  `json:"vlog_gc_runs"`
}

// vlogReport is the BENCH_vlog.json schema.
type vlogReport struct {
	Scale   string          `json:"scale"`
	Writers int             `json:"writers"`
	Runs    []vlogRunResult `json:"runs"`
	// PutSpeedup is separated / inline put throughput at 4 KiB values.
	PutSpeedup float64 `json:"put_speedup"`
	// RewriteReduction is inline / separated rewrite-bytes-per-logical-byte
	// at 4 KiB values (how many fewer times the LSM rewrites each byte).
	RewriteReduction float64 `json:"rewrite_reduction"`
	// SmallValueParity is threshold-enabled / threshold-disabled put
	// throughput at 128 B values (all below the threshold): the cost of
	// merely configuring separation, expected within ±5% of 1.0. It is
	// the median of SmallValuePairs, one ratio per interleaved pair.
	SmallValueParity float64   `json:"small_value_parity"`
	SmallValuePairs  []float64 `json:"small_value_pairs"`
}

// vlogProfile runs the cells and writes out (default BENCH_vlog.json).
func vlogProfile(sc harness.Scale, out string) error {
	writers := runtime.GOMAXPROCS(0)
	if writers < 4 {
		writers = 4
	}
	largeOps, smallOps := 20_000, 60_000
	switch sc.Name {
	case "smoke":
		largeOps, smallOps = 4_000, 12_000
	case "full":
		largeOps, smallOps = 60_000, 200_000
	}
	const largeVal, smallVal, keyspace = 4096, 128, 2048

	fmt.Printf("# vlog profile — %d large puts (%d B), %d small puts (%d B), %d writers, %d keys\n",
		largeOps, largeVal, smallOps, smallVal, writers, keyspace)

	grid := []struct {
		name      string
		valueSize int
		threshold int
		ops       int
	}{
		{"inline-4k", largeVal, 0, largeOps},
		{"vlog-4k", largeVal, 1024, largeOps},
	}
	rep := vlogReport{Scale: sc.Name, Writers: writers}
	cells := map[string]vlogRunResult{}
	run := func(name string, valueSize, threshold, ops int) error {
		r, err := vlogRun(name, valueSize, threshold, ops, keyspace, writers)
		if err != nil {
			return err
		}
		rep.Runs = append(rep.Runs, r)
		cells[name] = r
		fmt.Printf("%-13s %9.0f puts/s   %.2f rewrite bytes per logical byte   (%d segments, %d gc runs)\n",
			r.Name, r.PutsPerSec, r.RewritePerLogical, r.VlogSegments, r.VlogGCRuns)
		return nil
	}
	for _, g := range grid {
		if err := run(g.name, g.valueSize, g.threshold, g.ops); err != nil {
			return err
		}
	}
	if in := cells["inline-4k"]; in.PutsPerSec > 0 {
		rep.PutSpeedup = cells["vlog-4k"].PutsPerSec / in.PutsPerSec
	}
	if v := cells["vlog-4k"]; v.RewritePerLogical > 0 {
		rep.RewriteReduction = cells["inline-4k"].RewritePerLogical / v.RewritePerLogical
	}

	// Small-value parity: one pair of short runs measures run order and
	// GC timing as much as configuration, so run interleaved pairs,
	// alternating which cell goes first so order effects cancel, and
	// report the median ratio.
	const pairs = 5
	for p := 0; p < pairs; p++ {
		order := [2]int{0, 1024}
		if p%2 == 1 {
			order = [2]int{1024, 0}
		}
		for _, threshold := range order {
			name := "inline-small"
			if threshold > 0 {
				name = "vlog-small"
			}
			if err := run(name, smallVal, threshold, smallOps); err != nil {
				return err
			}
		}
		if in := cells["inline-small"]; in.PutsPerSec > 0 {
			rep.SmallValuePairs = append(rep.SmallValuePairs, cells["vlog-small"].PutsPerSec/in.PutsPerSec)
		}
	}
	if n := len(rep.SmallValuePairs); n > 0 {
		sorted := append([]float64(nil), rep.SmallValuePairs...)
		sort.Float64s(sorted)
		rep.SmallValueParity = sorted[n/2]
	}
	fmt.Printf("put speedup %.2fx, rewrite reduction %.2fx, small-value parity %.3f (median of pairs %.3f)\n",
		rep.PutSpeedup, rep.RewriteReduction, rep.SmallValueParity, rep.SmallValuePairs)

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// vlogRun writes ops values of valueSize over a small rotating keyspace
// (update-heavy, so compactions constantly shadow old versions), settles
// the tree, and reads back the rewrite volume.
func vlogRun(name string, valueSize, threshold, ops, keyspace, writers int) (vlogRunResult, error) {
	// Start each cell on a collected heap, so the previous cell's garbage
	// is not collected inside this cell's timed window.
	runtime.GC()
	db, err := clsm.OpenPath("",
		clsm.WithMemtableSize(1<<20),
		clsm.WithCompactionThreads(2),
		clsm.WithValueThreshold(threshold),
		clsm.WithValueLogSegmentSize(8<<20))
	if err != nil {
		return vlogRunResult{}, err
	}
	defer db.Close()

	val := make([]byte, valueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	var (
		next     atomic.Int64
		logical  atomic.Uint64
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := make([]byte, 0, 16)
			for {
				i := next.Add(1) - 1
				if i >= int64(ops) {
					return
				}
				key = fmt.Appendf(key[:0], "key-%06d", i%int64(keyspace))
				if err := db.Put(key, val); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				logical.Add(uint64(len(key) + len(val)))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return vlogRunResult{}, firstErr
	}

	// Settle outside the timed window: the write-amplification comparison
	// wants both trees fully compacted, and the value log fully collected.
	if err := db.Flush(); err != nil {
		return vlogRunResult{}, err
	}
	if err := db.CompactRange(); err != nil {
		return vlogRunResult{}, err
	}
	if err := db.CompactValueLog(context.Background()); err != nil {
		return vlogRunResult{}, err
	}
	m := db.Metrics()
	r := vlogRunResult{
		Name:         name,
		ValueSize:    valueSize,
		Threshold:    threshold,
		Puts:         ops,
		Seconds:      elapsed.Seconds(),
		RewriteBytes: m.FlushBytes + m.CompactionBytes,
		LogicalBytes: logical.Load(),
		VlogSegments: m.VlogSegments,
		VlogGCRuns:   m.VlogGCRuns,
	}
	if elapsed > 0 {
		r.PutsPerSec = float64(ops) / elapsed.Seconds()
	}
	if r.LogicalBytes > 0 {
		r.RewritePerLogical = float64(r.RewriteBytes) / float64(r.LogicalBytes)
	}
	return r, nil
}
