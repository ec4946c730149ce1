package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"

	"clsm"
	"clsm/clsmclient"
)

// TestMain lets the test binary stand in for clsm-server: with
// CLSMBENCH_FAKE_SERVER set it listens on -addr and blocks until killed.
func TestMain(m *testing.M) {
	if os.Getenv("CLSMBENCH_FAKE_SERVER") != "" {
		fl := flag.NewFlagSet("fake", flag.ContinueOnError)
		addr := fl.String("addr", "", "")
		fl.String("db", "", "")
		fl.Bool("sync", false, "")
		if err := fl.Parse(os.Args[1:]); err != nil {
			os.Exit(2)
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			os.Exit(3)
		}
		defer ln.Close()
		select {}
	}
	os.Exit(m.Run())
}

// exact returns the nearest-rank q-quantile of raw samples.
func exact(sorted []uint64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

func TestQuantileMatchesSortedSamples(t *testing.T) {
	r := newRNG(42, 0)
	dists := map[string]func() uint64{
		"small ints":  func() uint64 { return uint64(r.intn(200)) },
		"latency-ish": func() uint64 { return uint64(math.Exp(float64(r.intn(1<<20))/(1<<20)*12)) + 500 },
		"bimodal": func() uint64 {
			if r.intn(100) < 3 {
				return 2_000_000 + uint64(r.intn(1_000_000))
			}
			return 3000 + uint64(r.intn(2000))
		},
	}
	for name, draw := range dists {
		for _, n := range []int{1, 7, 1000, 54321} {
			var h hist
			raw := make([]uint64, n)
			for i := range raw {
				raw[i] = draw()
				h.record(raw[i])
			}
			sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
			for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
				want := exact(raw, q)
				got := h.quantile(q)
				// One bucket is at most 1/128 of its value wide.
				if tol := want/128 + 1; math.Abs(got-want) > tol {
					t.Errorf("%s n=%d q=%v: histogram %v, sorted samples %v", name, n, q, got, want)
				}
			}
		}
	}
}

func TestPercentilesNeedTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		p50, p99 bool
	}{{19, false, false}, {20, true, false}, {999, true, false}, {1000, true, true}} {
		var h hist
		for i := 0; i < tc.n; i++ {
			h.record(uint64(1000 + i))
		}
		r := newReport()
		r.latency("x_", &h)
		_, p50 := r.vals["x_p50_us"]
		_, p99 := r.vals["x_p99_us"]
		if p50 != tc.p50 || p99 != tc.p99 {
			t.Errorf("n=%d: reported p50=%v p99=%v, want %v %v", tc.n, p50, p99, tc.p50, tc.p99)
		}
		if p50 && r.samples["x_p50_us"] != uint64(tc.n) {
			t.Errorf("n=%d: sample count %d", tc.n, r.samples["x_p50_us"])
		}
	}
}

// A stub that stalls one request must show the stall in every request that
// was due while it lasted, timed from when each was due, and in the
// generator's lateness — a closed loop would charge it to one request.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const (
		rate  = 1000 // one request per millisecond
		total = 200
		stall = 50 * time.Millisecond
	)
	ops := make([]opKind, total)
	l := newOpenLoop(rate, ops, 1, false, time.Now())
	elapsed := l.run(func(w, i int) error {
		if i == 20 {
			time.Sleep(stall)
		}
		return nil
	})
	byOp, late, failed, _ := l.merged()
	if failed != 0 {
		t.Fatalf("%d failed", failed)
	}
	h := &byOp[opPut]
	if h.n != total {
		t.Fatalf("recorded %d requests, want %d", h.n, total)
	}
	// Requests 21..~60 were due during the stall and waited behind it: the
	// k-th of them at least stall - k ms after its due time.
	slow := countAtLeast(h, uint64(25*time.Millisecond))
	if slow < 20 {
		t.Errorf("%d requests charged >= 25ms, want >= 20 (the queue behind a 50ms stall)", slow)
	}
	if lateSlow := countAtLeast(&late, uint64(25*time.Millisecond)); lateSlow < 20 {
		t.Errorf("generator lateness shows %d requests >= 25ms late, want >= 20", lateSlow)
	}
	if elapsed < (total-1)*time.Millisecond {
		t.Errorf("run took %v, less than its schedule", elapsed)
	}
}

func countAtLeast(h *hist, v uint64) uint64 {
	var n uint64
	for i, c := range h.counts {
		if lo, _ := histBounds(i); lo >= float64(v) {
			n += c
		}
	}
	return n
}

// stubStore answers every read with a valid value of the key asked for,
// built in fixed buffers, so the only allocations a timed loop sees
// against it are its own.
type stubStore struct {
	val, key []byte
	ctr      []byte
}

func newStubStore() *stubStore {
	return &stubStore{val: make([]byte, dataValue), key: make([]byte, keyLen), ctr: make([]byte, 8)}
}

func (s *stubStore) Put(k, v []byte) error { return nil }
func (s *stubStore) Get(k []byte) ([]byte, bool, error) {
	id, _ := keyID(k, k[0])
	return putValue(s.val, id, 1), true, nil
}
func (s *stubStore) RMW(k []byte, f func([]byte, bool) []byte) error {
	f(s.ctr, true)
	return nil
}
func (s *stubStore) Scan(lo, hi []byte, limit int, visit func(k, v []byte), tr *tracer, parent int32) (int, int64, error) {
	from, _ := keyID(lo, lo[0])
	to, _ := keyID(hi, hi[0])
	n := 0
	for id := from; id < to && n < limit; id++ {
		visit(putKey(s.key, lo[0], id), putValue(s.val, id, 1))
		n++
		if tr != nil {
			tr.add(opNext, clsNone, 0, 1, parent)
		}
	}
	return n, int64(n), nil
}

func TestTimedLoopsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	st := newStubStore()
	for _, trace := range []bool{false, true} {
		ws := []*worker{newWorker(0, 1, dataValue, trace, time.Now())}
		h := newHotLoad(st, 1000, 10, 100, 1)
		rl := newRMWLoad(st, ws)
		ids := make([]uint32, 500)
		model := make([]uint64, 1)
		cases := map[string]func(){
			"ingest":   func() { ingestWorker(st, ws[0], ids, model) },
			"read_hot": func() { h.round(ws[0]) },
			"rmw_scan": func() { rl.round(ws[0]) },
		}
		for name, f := range cases {
			runtime.GC()
			if a := testing.AllocsPerRun(200, f); a != 0 {
				t.Errorf("%s (trace %v): %v allocations per round", name, trace, a)
			}
		}
	}
	// The open loop's per-request path: amortized over many requests, its
	// set-up allocations round to nothing.
	ops := make([]opKind, 20000)
	var nop func(w, i int) error = func(w, i int) error { return nil }
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	newOpenLoop(1e7, ops, 4, false, time.Now()).run(nop)
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / float64(len(ops)); per > 0.01 {
		t.Errorf("open loop: %.4f allocations per request", per)
	}
}

// sliceScanner replays key/value pairs as an iterator.
type sliceScanner struct {
	kv [][2][]byte
	i  int
}

func (s *sliceScanner) First()        { s.i = 0 }
func (s *sliceScanner) Valid() bool   { return s.i < len(s.kv) }
func (s *sliceScanner) Key() []byte   { return s.kv[s.i][0] }
func (s *sliceScanner) Value() []byte { return s.kv[s.i][1] }
func (s *sliceScanner) Next()         { s.i++ }

func ingestImage(model []uint64) *sliceScanner {
	s := &sliceScanner{}
	for id, v := range model {
		if v != 0 {
			k := putKey(make([]byte, keyLen), ingestFamily, uint64(id))
			val := putValue(make([]byte, ingestValue), uint64(id), v)
			s.kv = append(s.kv, [2][]byte{k, val})
		}
	}
	return s
}

func TestIngestCheckNegativeControls(t *testing.T) {
	model := []uint64{3, 0, 7, 1, 0, 2}
	if err := checkIngestScan(ingestImage(model), model); err != nil {
		t.Fatalf("clean image rejected: %v", err)
	}
	flipped := ingestImage(model)
	flipped.kv[1][1][30] ^= 1
	dropped := ingestImage(model)
	dropped.kv = dropped.kv[:len(dropped.kv)-1]
	stale := ingestImage(model)
	stale.kv[0][1] = putValue(make([]byte, ingestValue), 0, 2)
	swapped := ingestImage(model)
	swapped.kv[0], swapped.kv[1] = swapped.kv[1], swapped.kv[0]
	for name, s := range map[string]*sliceScanner{
		"flipped value byte": flipped, "missing acknowledged key": dropped,
		"stale version": stale, "descending keys": swapped,
	} {
		if err := checkIngestScan(s, model); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

// The byte checks of ingest: a real store's tables match its DiskBytes
// until a stray table appears; kernel bytes short of the engine's fail.
func TestIngestByteChecksNegativeControls(t *testing.T) {
	dir := t.TempDir()
	db, err := clsm.OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := newRNG(1, 1)
	if err := loadDataset(db, &r, ingestFamily, 50_000, 1, ingestValue); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	if err := waitIdle(db, time.Minute); err != nil {
		t.Fatal(err)
	}
	walk := func() uint64 {
		_, tables, err := dirBytes(dir)
		if err != nil {
			t.Fatal(err)
		}
		return tables
	}
	if err := checkTableBytes(walk(), db.Metrics().DiskBytes); err != nil {
		t.Fatalf("clean store: %v", err)
	}
	if err := os.WriteFile(dir+"/999999.sst", make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkTableBytes(walk(), db.Metrics().DiskBytes); err == nil {
		t.Error("stray table: check passed")
	}
	if err := checkWriteBytes(1000, 600, 400); err != nil {
		t.Errorf("exact bytes rejected: %v", err)
	}
	if err := checkWriteBytes(999, 600, 400); err == nil {
		t.Error("kernel bytes short of the engine's: check passed")
	}
}

// The read_hot loop against a real in-memory store: clean data passes; one
// flipped value byte in the dataset fails the check.
func TestReadHotCheckNegativeControl(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		db, err := clsm.OpenPath("")
		if err != nil {
			t.Fatal(err)
		}
		const keys = 2000
		r := newRNG(1, 1)
		if err := loadDataset(db, &r, hotFamily, keys, 2, hotValue); err != nil {
			t.Fatal(err)
		}
		if corrupt {
			// Every present key carries a flipped byte, so some Get sees one.
			for j := 0; j < keys; j++ {
				id := uint64(2 * j)
				v := putValue(make([]byte, hotValue), id, 1)
				v[20] ^= 1
				if err := db.Put(putKey(make([]byte, keyLen), hotFamily, id), v); err != nil {
					t.Fatal(err)
				}
			}
		}
		ws := []*worker{newWorker(0, 1, hotValue, false, time.Now())}
		h := newHotLoad(dbStore{db}, keys, 100, 200, 1)
		for i := 0; i < 20; i++ {
			h.round(ws[0])
		}
		err = h.check(int64(ws[0].lat[opGet][clsHot].n + ws[0].lat[opGet][clsCold].n + ws[0].lat[opGet][clsAbsent].n))
		db.Close()
		if corrupt && err == nil {
			t.Error("flipped value byte: check passed")
		}
		if !corrupt && err != nil {
			t.Errorf("clean run failed its check: %v", err)
		}
	}
	if err := checkReadHot(10, 5, 11, 15, 0); err == nil {
		t.Error("a present key reported absent: check passed")
	}
}

func TestRMWScanCheckNegativeControls(t *testing.T) {
	db, err := clsm.OpenPath("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := newRNG(1, 1)
	if err := loadDataset(db, &r, dataFamily, dataKeys, 1, dataValue); err != nil {
		t.Fatal(err)
	}
	ws := []*worker{newWorker(0, 1, dataValue, false, time.Now()), newWorker(1, 1, dataValue, false, time.Now())}
	l := newRMWLoad(dbStore{db}, ws)
	runAll(ws, func(w *worker) {
		for i := 0; i < 200; i++ {
			l.round(w)
		}
	})
	key := make([]byte, keyLen)
	read := func(c int) (uint64, bool, error) {
		v, ok, err := db.Get(putKey(key, counterFamily, uint64(c)))
		if err != nil || !ok {
			return 0, ok, err
		}
		return binary.BigEndian.Uint64(v), true, nil
	}
	if err := checkCounters(read, l.rws); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	var calls, rmws int64
	for _, rw := range l.rws {
		calls += rw.calls
		rmws += int64(rw.lat[opRMW][clsNone].n)
		if rw.scanBad != 0 || l.badGets[rw.id] != 0 {
			t.Fatalf("clean run: %d bad scanned pairs (%s), %d bad gets", rw.scanBad, rw.firstBad, l.badGets[rw.id])
		}
	}
	retries := int64(db.Metrics().RMWRetries)
	if err := checkCallbacks(calls, rmws, retries); err != nil {
		t.Fatalf("clean run: %v", err)
	}

	// A dropped increment: the tally says one more than the store holds.
	hot := 0
	l.rws[0].tally[hot]++
	if err := checkCounters(read, l.rws); err == nil {
		t.Error("dropped increment: counter check passed")
	}
	l.rws[0].tally[hot]--
	if err := checkCallbacks(calls, rmws+1, retries); err == nil {
		t.Error("uncounted RMW: callback check passed")
	}

	// A flipped value byte in the data family fails the scan check.
	v := putValue(make([]byte, dataValue), 5000, 1)
	v[40] ^= 1
	if err := db.Put(putKey(key, dataFamily, 5000), v); err != nil {
		t.Fatal(err)
	}
	rw := l.rws[0]
	before := rw.scanBad
	putKey(rw.key, dataFamily, 4990)
	putKey(rw.hi, dataFamily, dataKeys)
	rw.next, rw.end = 4990, dataKeys
	if _, _, err := (dbStore{db}).Scan(rw.key, rw.hi, 20, rw.visit, nil, -1); err != nil {
		t.Fatal(err)
	}
	if rw.scanBad == before {
		t.Error("flipped value byte: scan check passed")
	}
}

// storeGetter serves the durability check from an embedded store.
type storeGetter struct{ db *clsm.DB }

func (g storeGetter) MultiGet(ctx context.Context, keys [][]byte) ([]clsmclient.Value, error) {
	vals, err := g.db.MultiGet(keys)
	out := make([]clsmclient.Value, len(vals))
	for i, v := range vals {
		out[i] = clsmclient.Value{Data: v.Data, Exists: v.Exists}
	}
	return out, err
}

func TestRemoteCheckNegativeControls(t *testing.T) {
	db, err := clsm.OpenPath("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := newRNG(1, 1)
	if err := loadDataset(db, &r, remoteFamily, remoteKeys, 1, remoteValue); err != nil {
		t.Fatal(err)
	}
	model := make([]uint64, remoteKeys)
	for i := range model {
		model[i] = 1
	}
	ctx := context.Background()
	if err := checkRemoteModel(ctx, storeGetter{db}, model); err != nil {
		t.Fatalf("clean store: %v", err)
	}
	// An acknowledged write the store lost.
	model[123] = 9
	if err := checkRemoteModel(ctx, storeGetter{db}, model); !errors.Is(err, errModel) {
		t.Errorf("lost acknowledged write: got %v", err)
	}
	model[123] = 1
	// A missing acknowledged key.
	if err := db.Delete(putKey(make([]byte, keyLen), remoteFamily, 77)); err != nil {
		t.Fatal(err)
	}
	if err := checkRemoteModel(ctx, storeGetter{db}, model); !errors.Is(err, errModel) {
		t.Errorf("missing acknowledged key: got %v", err)
	}
}

// The server child is reaped on every path: graceful stop, kill, and the
// cleanups that run on early return or SIGINT/SIGTERM.
func TestServerChildIsReaped(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("CLSMBENCH_FAKE_SERVER", "1")
	e := &runEnv{tmp: t.TempDir(), serverBin: exe}
	for _, how := range []string{"stop", "cleanup"} {
		p, _, err := startServer(e, e.tmp)
		if err != nil {
			t.Fatal(err)
		}
		pid := p.pid()
		if err := syscall.Kill(pid, 0); err != nil {
			t.Fatalf("server not running: %v", err)
		}
		switch how {
		case "stop":
			// The fake ignores nothing: SIGTERM ends it.
			if err := p.stop(); err != nil {
				t.Fatal(err)
			}
		case "cleanup":
			runCleanups()
			cleanups.Lock()
			cleanups.done, cleanups.fns = false, nil
			cleanups.Unlock()
		}
		select {
		case <-p.waited:
		default:
			t.Fatalf("%s: server %d not reaped", how, pid)
		}
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("%s: process %d still exists (%v)", how, pid, err)
		}
	}
}

// BENCHMARK.json lists exactly the metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	names := map[string]bool{}
	for _, w := range spec.Workloads {
		names[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for n := range workloads {
		if !names[n] {
			t.Errorf("workload %q is missing from BENCHMARK.json", n)
		}
	}
}
