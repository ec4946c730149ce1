package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatches keeps them equal).
type metricDef struct {
	name, unit, better string
}

// endToEnd are what a user of the store sees; every workload reports all
// of them from its untraced run: set-up time, throughput, the median
// latency of every operation it issues and of its writes (Put, and RMW on
// rmw_scan). The 99th percentiles, write and space amplification and the
// per-operation figures are printed too but kept out of this list: their
// run-to-run spread on a two-core sandbox is wider than any useful bound
// (README.md gives the measured spreads).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"p50_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
}

// perLayer are measured from outside each layer and reported by the traced
// run; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	// internal/wal
	{"wal.appends_per_put", "count/op", "lower"},
	{"wal.syncs_per_put", "count/op", "lower"},
	{"wal.group_records_p50", "count", "higher"},
	{"wal.group_records_p99", "count", "higher"},
	// internal/scheduler
	{"sched.throttle_waits", "count", "lower"},
	{"sched.throttle_wait_s", "s", "lower"},
	{"sched.memtable_wait_s", "s", "lower"},
	{"sched.l0_stall_s", "s", "lower"},
	{"sched.debt_bytes_max", "B", "lower"},
	// internal/compaction, internal/version
	{"flush.count", "count", "lower"},
	{"flush.busy_s", "s", "lower"},
	{"flush.bytes", "B", "lower"},
	{"compaction.count", "count", "lower"},
	{"compaction.busy_s", "s", "lower"},
	{"compaction.bytes", "B", "lower"},
	{"compaction.bytes_L1", "B", "lower"},
	{"compaction.bytes_L2", "B", "lower"},
	{"compaction.bytes_L3", "B", "lower"},
	{"compaction.bytes_L4", "B", "lower"},
	{"compaction.bytes_L5", "B", "lower"},
	{"compaction.bytes_L6", "B", "lower"},
	{"compaction.dropped", "count", "higher"},
	{"version.l0_files", "count", "lower"},
	{"version.levels_used", "count", "lower"},
	// internal/cache, internal/sstable, internal/bloom
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.misses_per_get", "count/op", "lower"},
	{"io.read_bytes_per_get", "B/op", "lower"},
	{"io.read_calls_per_get", "count/op", "lower"},
	{"get.hot_p50_us", "us", "lower"},
	{"get.cold_p50_us", "us", "lower"},
	{"get.absent_p50_us", "us", "lower"},
	// internal/memtable, internal/skiplist, internal/oracle
	{"rmw.retries_per_rmw", "count/op", "lower"},
	{"scan.snapshot_p50_us", "us", "lower"},
	{"scan.next_p50_ns", "ns", "lower"},
	{"scan.self_p50_us", "us", "lower"},
	{"scan.keys_per_scan", "count", "higher"},
	// internal/storage, as the kernel sees it
	{"io.write_calls_per_put", "count/op", "lower"},
	{"io.write_bytes_per_put", "B/op", "lower"},
	{"disk.table_bytes", "B", "lower"},
	// the benchmark process (embedded store)
	{"proc.cpu_us_per_op", "us/op", "lower"},
	{"proc.allocs_per_op", "count/op", "lower"},
	{"proc.alloc_bytes_per_op", "B/op", "lower"},
	{"proc.gc_cpu_s", "s", "lower"},
	{"proc.max_rss_mb", "MB", "lower"},
	// internal/server, internal/wire, clsmclient
	{"server.write_batch_p50", "count", "higher"},
	{"server.read_batch_p50", "count", "higher"},
	{"server.engine_write_p50_us", "us", "lower"},
	{"server.engine_write_p99_us", "us", "lower"},
	{"server.engine_multiget_p50_us", "us", "lower"},
	{"server.cpu_us_per_op", "us/op", "lower"},
	{"server.recovery_s", "s", "lower"},
	{"loadgen.late_p99_us", "us", "lower"},
	// the traced run itself
	{"trace.spans", "count", "lower"},
	{"trace.ns_per_span", "ns", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// report collects metric values with their sample counts. Besides the
// end-to-end and per-layer metrics it holds per-operation-class figures
// (put_p50_us, get_p99_us, ...), which are printed but not in the result
// line because not every workload issues every class.
type report struct {
	vals    map[string]float64
	units   map[string]string
	samples map[string]uint64
	order   []string
}

func newReport() *report {
	return &report{vals: map[string]float64{}, units: map[string]string{}, samples: map[string]uint64{}}
}

func (r *report) set(name string, v float64, unit string, samples uint64) {
	if _, ok := r.vals[name]; !ok {
		r.order = append(r.order, name)
	}
	r.vals[name] = v
	r.units[name] = unit
	r.samples[name] = samples
}

// latency records the median and the 99th percentile of h (nanoseconds)
// in microseconds under prefix+"p50_us" and prefix+"p99_us", each only if
// it has at least ten samples beyond it.
func (r *report) latency(prefix string, h *hist) {
	for _, q := range []struct {
		q    float64
		name string
	}{{0.50, "p50_us"}, {0.99, "p99_us"}} {
		if reportable(q.q, h.n) {
			r.set(prefix+q.name, h.quantile(q.q)/1e3, "us", h.n)
		}
	}
}

// print writes every collected metric, one per line, in collection order.
func (r *report) print(w io.Writer) {
	for _, name := range r.order {
		fmt.Fprintf(w, "metric %-32s %14.6g %-9s n=%d\n", name, r.vals[name], r.units[name], r.samples[name])
	}
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// resultLine builds the final JSON line: the end-to-end metrics for an
// untraced run, the per-layer ones for a traced run. An end-to-end metric
// the workload did not produce is an error; an unexercised layer reads 0.
func (r *report) resultLine(traced, correct bool, attempted, failed int64) (string, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]resultMetric{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok && !traced {
			missing = append(missing, d.name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = resultMetric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("workload produced no value for %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(res)
	return string(b), err
}
