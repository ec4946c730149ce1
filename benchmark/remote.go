package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"clsm/clsmclient"
)

// remote_sync: cmd/clsm-server with -sync on a preloaded store, driven by
// an open loop at a fixed rate of 50 % Get and 50 % Put over the client's
// pooled connections. Every Put waits for WAL durability, so this is the
// workload of WAL group commit, the wire protocol and the server's
// cross-connection coalescing.
const (
	remoteKeys    = 100_000
	remoteFamily  = 'r'
	remoteValue   = 100
	remoteRate    = 2000 // requests per second; see README.md for how it was chosen
	remoteWorkers = 64   // request goroutines: far more than rate × latency
)

// serverProc is a clsm-server child process. It is reaped on every path:
// stop and kill wait for it, and a cleanup registered at start kills it
// on any early return or signal.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	waited chan struct{}
	log    string
}

func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("find a free port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// startServer starts clsm-server on dir and returns once it accepts
// connections, with the time that took.
func startServer(e *runEnv, dir string) (*serverProc, time.Duration, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, 0, err
	}
	logPath := filepath.Join(e.tmp, "server.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(e.serverBin, "-db", dir, "-sync", "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the server if this process dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	p := &serverProc{cmd: cmd, addr: addr, waited: make(chan struct{}), log: logPath}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server is expected
		logf.Close()
		close(p.waited)
	}()
	atExit(p.kill)
	deadline := t0.Add(60 * time.Second)
	for {
		select {
		case <-p.waited:
			return nil, 0, fmt.Errorf("server exited during start-up: %s", p.tail())
		default:
		}
		if c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond); err == nil {
			c.Close()
			return p, time.Since(t0), nil
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, 0, errors.New("server not accepting connections after 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// kill sends SIGKILL and waits for the process to be reaped.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-p.waited
}

// stop asks for a graceful shutdown and kills the server if it has not
// exited within ten seconds.
func (p *serverProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.waited:
		return nil
	case <-time.After(10 * time.Second):
		p.kill()
		return errors.New("server ignored SIGTERM for 10s")
	}
}

func (p *serverProc) tail() string {
	b, _ := os.ReadFile(p.log)
	s := strings.TrimSpace(string(b))
	if len(s) > 2000 {
		s = s[len(s)-2000:]
	}
	return s
}

// serverStats is the part of the server's Status snapshot the benchmark
// reads (the JSON form of the engine's observability snapshot).
type serverStats struct {
	Ops map[string]struct {
		Count uint64 `json:"count"`
		P50   int64  `json:"p50_ns"`
		P99   int64  `json:"p99_ns"`
	} `json:"ops"`
	Counters         map[string]uint64 `json:"counters"`
	WALGroupSize     valueSnap         `json:"wal_group_size"`
	WriteThrottle    valueSnap         `json:"write_throttle_micros"`
	ServerWriteBatch valueSnap         `json:"server_write_batch"`
	ServerReadBatch  valueSnap         `json:"server_read_batch"`
	Events           []struct {
		Seq   uint64 `json:"seq"`
		Type  string `json:"type"`
		Level int    `json:"level"`
		Bytes uint64 `json:"bytes"`
		Dur   int64  `json:"dur_ns"`
		Cause string `json:"cause"`
	} `json:"events"`
}

type valueSnap struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P99   uint64  `json:"p99"`
}

func fetchStats(ctx context.Context, cl *clsmclient.Client) (serverStats, error) {
	st, err := cl.Status(ctx)
	if err != nil {
		return serverStats{}, fmt.Errorf("server status: %w", err)
	}
	var s serverStats
	if err := json.Unmarshal(st.Obs, &s); err != nil {
		return serverStats{}, fmt.Errorf("decode server status: %w", err)
	}
	return s, nil
}

// remoteSample is everything read around the timed phase.
type remoteSample struct {
	stats  serverStats
	cpu    time.Duration
	io     ioStat
	self   selfStat
	lastEv uint64
}

func sampleRemote(ctx context.Context, cl *clsmclient.Client, pid int) (remoteSample, error) {
	var s remoteSample
	var err error
	if s.stats, err = fetchStats(ctx, cl); err != nil {
		return s, err
	}
	if s.cpu, err = readStatCPU(pid); err != nil {
		return s, err
	}
	if s.io, err = readIO(fmt.Sprint(pid)); err != nil {
		return s, err
	}
	s.self = readSelf()
	for _, ev := range s.stats.Events {
		if ev.Seq > s.lastEv {
			s.lastEv = ev.Seq
		}
	}
	return s, nil
}

// remoteWorker holds one request goroutine's buffers and check counts.
type remoteWorker struct {
	key, val []byte
	bad      int64
}

func runRemoteSync(e *runEnv) (int64, int64, error) {
	dir := filepath.Join(e.tmp, "db")
	r := newRNG(e.seed, 1)
	{
		var evl eventLog
		db, err := openStore(dir, &evl)
		if err != nil {
			return 0, 0, err
		}
		err = loadDataset(db, &r, remoteFamily, remoteKeys, 1, remoteValue)
		if err == nil {
			err = db.CompactRange()
		}
		if cerr := db.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close after load: %w", cerr)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	srv, _, err := startServer(e, dir)
	if err != nil {
		return 0, 0, err
	}
	ctx := context.Background()
	cl, err := clsmclient.Dial(srv.addr, clsmclient.WithPoolSize(e.clients))
	if err != nil {
		return 0, 0, fmt.Errorf("dial server: %w", err)
	}
	defer cl.Close()

	rate := remoteRate
	if e.rate > 0 {
		rate = e.rate
	}
	// The schedule: rounds of five Puts and five Gets in a seeded order.
	// Puts walk a seeded permutation of the keys, so no key is written
	// twice in a run and no two writes to one key are ever in flight.
	total := rate * e.seconds / 10 * 10
	if total/2 > remoteKeys {
		return 0, 0, fmt.Errorf("%d puts need more than %d keys; lower --rate or --seconds", total/2, remoteKeys)
	}
	ops := make([]opKind, total)
	ids := make([]uint32, total)
	perm := make([]uint32, remoteKeys)
	for i := range perm {
		perm[i] = uint32(i)
	}
	shuffle(&r, perm)
	round := []opKind{opPut, opPut, opPut, opPut, opPut, opGet, opGet, opGet, opGet, opGet}
	puts := 0
	for i := 0; i < total; i += len(round) {
		shuffle(&r, round)
		for j, op := range round {
			ops[i+j] = op
			if op == opPut {
				ids[i+j] = perm[puts]
				puts++
			} else {
				ids[i+j] = uint32(r.intn(remoteKeys))
			}
		}
	}
	model := make([]uint64, remoteKeys)
	for i := range model {
		model[i] = 1
	}
	rws := make([]*remoteWorker, remoteWorkers)
	for i := range rws {
		rws[i] = &remoteWorker{key: make([]byte, keyLen), val: make([]byte, remoteValue)}
	}
	do := func(w, i int) error {
		rw := rws[w]
		id := uint64(ids[i])
		putKey(rw.key, remoteFamily, id)
		if ops[i] == opPut {
			version := uint64(2 + i)
			putValue(rw.val, id, version)
			if err := cl.Put(ctx, rw.key, rw.val); err != nil {
				return err
			}
			model[id] = version
			return nil
		}
		v, ok, err := cl.Get(ctx, rw.key)
		if err != nil {
			return err
		}
		if _, valid := checkValue(v, id, remoteValue); !ok || !valid {
			rw.bad++
		}
		return nil
	}
	// Warm the connections and the server's cache.
	for i := 0; i < 2000; i++ {
		putKey(rws[0].key, remoteFamily, uint64(r.intn(remoteKeys)))
		if _, _, err := cl.Get(ctx, rws[0].key); err != nil {
			return 0, 0, fmt.Errorf("warm-up get: %w", err)
		}
	}
	epoch := time.Now()
	loop := newOpenLoop(float64(rate), ops, remoteWorkers, e.trace, epoch)
	before, err := sampleRemote(ctx, cl, srv.pid())
	if err != nil {
		return 0, 0, err
	}
	e.setupDone()
	elapsed := loop.run(do)
	after, err := sampleRemote(ctx, cl, srv.pid())
	if err != nil {
		return 0, 0, err
	}
	byOp, late, failed, firstErr := loop.merged()
	if firstErr != nil {
		fmt.Fprintf(e.out, "first failed request: %v\n", firstErr)
	}
	var all hist
	for op := range byOp {
		all.merge(&byOp[op])
	}
	r2 := e.rep
	r2.set("ops_per_s", float64(total)/elapsed.Seconds(), "ops/s", uint64(total))
	e.latencyMetrics(&all, &byOp[opPut], &byOp)
	nPuts, nGets := int64(byOp[opPut].n), int64(byOp[opGet].n)
	sio := after.io.sub(before.io)
	r2.set("write_amp", float64(sio.wchar)/float64(uint64(nPuts)*(keyLen+remoteValue)), "B/B", uint64(nPuts))
	diskAll, diskTables, err := dirBytes(dir)
	if err != nil {
		return 0, 0, err
	}
	r2.set("space_amp", float64(diskAll)/float64(remoteKeys*(keyLen+remoteValue)), "B/B", 1)
	e.remoteLayers(before, after, nPuts, nGets, int64(total), diskTables)
	if reportable(0.99, late.n) {
		r2.set("loadgen.late_p99_us", late.quantile(0.99)/1e3, "us", late.n)
	}
	r2.set("loadgen.late_p50_us", late.quantile(0.5)/1e3, "us", late.n)
	if err := e.traceLayers(loop.tr, int64(total)); err != nil {
		return 0, 0, err
	}
	var bad int64
	for _, rw := range rws {
		bad += rw.bad
	}
	if bad > 0 {
		e.problem("remote_sync: %d gets missed a preloaded key or returned a bad value", bad)
	}

	// Durability: kill the server without warning, restart it on the same
	// directory and read every key back.
	cl.Close()
	srv.kill()
	srv, recovery, err := startServer(e, dir)
	if err != nil {
		return 0, 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	r2.set("server.recovery_s", recovery.Seconds(), "s", 1)
	cl2, err := clsmclient.Dial(srv.addr)
	if err != nil {
		return 0, 0, fmt.Errorf("dial restarted server: %w", err)
	}
	defer cl2.Close()
	if err := checkRemoteModel(ctx, cl2, model); err != nil {
		if !errors.Is(err, errModel) {
			return 0, 0, err
		}
		e.problem("remote_sync: after SIGKILL and restart: %v", err)
	}
	cl2.Close()
	if err := srv.stop(); err != nil {
		return 0, 0, err
	}
	return int64(total), failed, nil
}

// errModel marks a store that disagrees with the benchmark's model.
var errModel = errors.New("store differs from model")

// multiGetter is the read the durability check makes.
type multiGetter interface {
	MultiGet(ctx context.Context, keys [][]byte) ([]clsmclient.Value, error)
}

// checkRemoteModel reads every key and compares it with the version the
// model says was last acknowledged.
func checkRemoteModel(ctx context.Context, cl multiGetter, model []uint64) error {
	const batch = 500
	keys := make([][]byte, 0, batch)
	for lo := 0; lo < len(model); lo += batch {
		hi := lo + batch
		if hi > len(model) {
			hi = len(model)
		}
		keys = keys[:0]
		for id := lo; id < hi; id++ {
			keys = append(keys, putKey(make([]byte, keyLen), remoteFamily, uint64(id)))
		}
		vals, err := cl.MultiGet(ctx, keys)
		if err != nil {
			return fmt.Errorf("read back: %w", err)
		}
		if len(vals) != len(keys) {
			return fmt.Errorf("read back %d keys, got %d values", len(keys), len(vals))
		}
		for i, v := range vals {
			id := uint64(lo + i)
			if !v.Exists {
				return fmt.Errorf("%w: key %d missing, version %d was acknowledged", errModel, id, model[id])
			}
			got, ok := checkValue(v.Data, id, remoteValue)
			if !ok {
				return fmt.Errorf("%w: key %d holds a corrupt or foreign value", errModel, id)
			}
			if got != model[id] {
				return fmt.Errorf("%w: key %d holds version %d, last acknowledged %d", errModel, id, got, model[id])
			}
		}
	}
	return nil
}

// remoteLayers reports the per-layer metrics of the server between two
// samples around the timed phase.
func (e *runEnv) remoteLayers(b, a remoteSample, puts, gets, total int64, tables uint64) {
	r := e.rep
	d := func(name string) float64 { return float64(a.stats.Counters[name] - b.stats.Counters[name]) }
	r.set("wal.appends_per_put", per(d("wal_appends"), puts), "count/op", uint64(puts))
	r.set("wal.syncs_per_put", per(d("wal_syncs"), puts), "count/op", uint64(puts))
	r.set("wal.group_records_p50", float64(a.stats.WALGroupSize.P50), "count", a.stats.WALGroupSize.Count)
	r.set("wal.group_records_p99", float64(a.stats.WALGroupSize.P99), "count", a.stats.WALGroupSize.Count)
	tw := a.stats.WriteThrottle.Count - b.stats.WriteThrottle.Count
	r.set("sched.throttle_waits", float64(tw), "count", uint64(puts))
	r.set("sched.throttle_wait_s", (a.stats.WriteThrottle.Mean*float64(a.stats.WriteThrottle.Count)-
		b.stats.WriteThrottle.Mean*float64(b.stats.WriteThrottle.Count))/1e6, "s", tw)
	debt := b.stats.Counters["compaction_debt_bytes"]
	if x := a.stats.Counters["compaction_debt_bytes"]; x > debt {
		debt = x
	}
	r.set("sched.debt_bytes_max", float64(debt), "B", 2)
	var evs []eventRec
	for _, ev := range a.stats.Events {
		if ev.Seq > b.lastEv {
			evs = append(evs, eventRec{typ: ev.Type, cause: ev.Cause, level: ev.Level, bytes: ev.Bytes, dur: time.Duration(ev.Dur)})
		}
	}
	e.eventLayers(evs)
	r.set("compaction.dropped", d("compaction_dropped"), "count", 1)
	hits, miss := d("cache_hits"), d("cache_misses")
	if hits+miss > 0 {
		r.set("cache.hit_ratio", hits/(hits+miss), "ratio", uint64(hits+miss))
	}
	r.set("cache.misses_per_get", per(miss, gets), "count/op", uint64(gets))
	sio := a.io.sub(b.io)
	r.set("io.read_bytes_per_get", per(float64(sio.rchar), gets), "B/op", uint64(gets))
	r.set("io.read_calls_per_get", per(float64(sio.syscr), gets), "count/op", uint64(gets))
	r.set("io.write_calls_per_put", per(float64(sio.syscw), puts), "count/op", uint64(puts))
	r.set("io.write_bytes_per_put", per(float64(sio.wchar), puts), "B/op", uint64(puts))
	r.set("disk.table_bytes", float64(tables), "B", 1)
	e.procLayers(b.self, a.self, total)
	r.set("server.write_batch_p50", float64(a.stats.ServerWriteBatch.P50), "count", a.stats.ServerWriteBatch.Count)
	r.set("server.read_batch_p50", float64(a.stats.ServerReadBatch.P50), "count", a.stats.ServerReadBatch.Count)
	if w, ok := a.stats.Ops["write"]; ok {
		r.set("server.engine_write_p50_us", float64(w.P50)/1e3, "us", w.Count)
		r.set("server.engine_write_p99_us", float64(w.P99)/1e3, "us", w.Count)
	}
	if m, ok := a.stats.Ops["multiget"]; ok {
		r.set("server.engine_multiget_p50_us", float64(m.P50)/1e3, "us", m.Count)
	}
	r.set("server.cpu_us_per_op", per(float64(a.cpu-b.cpu)/1e3, total), "us/op", uint64(total))
}
