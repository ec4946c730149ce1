// Command clsmbench is the end-to-end benchmark of the clsm store. It runs
// one named workload from a seed, checks the store's outputs against the
// benchmark's own model, prints every metric with its unit and sample
// count, and ends with one JSON result line. Run it through run.sh, which
// builds it and cmd/clsm-server from the checkout first:
//
//	bash benchmark/run.sh --workload read_hot --seed 7 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with a span around every public call and reports the per-layer
// metrics. See README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procStart is taken during package initialisation, before main runs, so
// setup_s covers the process's own start-up too.
var procStart = time.Now()

// runEnv is one run's configuration and outputs.
type runEnv struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	clients  int
	rate     int // remote_sync requests per second (0 = the workload's default)

	work, tmp, serverBin string

	out      io.Writer
	rep      *report
	problems []string // correctness failures
}

// problem records a failed correctness check.
func (e *runEnv) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(e.problems) < 50 {
		e.problems = append(e.problems, msg)
	}
}

// setupDone marks the end of set-up: setup_s is the time from process
// start to the first timed operation.
func (e *runEnv) setupDone() {
	setup := time.Since(procStart).Seconds()
	e.rep.set("setup_s", setup, "s", 1)
	fmt.Fprintf(e.out, "setup done after %.3fs; timed phase starts\n", setup)
}

type workloadFunc func(e *runEnv) (attempted, failed int64, err error)

var workloads = map[string]workloadFunc{
	"ingest":      runIngest,
	"read_hot":    runReadHot,
	"rmw_scan":    runRMWScan,
	"remote_sync": runRemoteSync,
}

// cleanups run once, in reverse order, on return from main and on
// SIGINT/SIGTERM: they stop the server child and remove temporary stores.
var cleanups struct {
	sync.Mutex
	fns  []func()
	done bool
}

func atExit(f func()) {
	cleanups.Lock()
	defer cleanups.Unlock()
	cleanups.fns = append(cleanups.fns, f)
}

func runCleanups() {
	cleanups.Lock()
	defer cleanups.Unlock()
	if cleanups.done {
		return
	}
	cleanups.done = true
	for i := len(cleanups.fns) - 1; i >= 0; i-- {
		cleanups.fns[i]()
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("clsmbench", flag.ContinueOnError)
	var (
		workload = fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fl.Uint64("seed", 1, "seed of every generated input")
		seconds  = fl.Int("seconds", 10, "length of the timed phase")
		trace    = fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		clients  = fl.Int("clients", 2, "closed-loop clients, or remote connections")
		rate     = fl.Int("rate", 0, "remote_sync requests per second (0 = default)")
		work     = fl.String("work", ".bench_build", "directory holding clsm-server, temporary stores and trace output")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || *clients < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "clsmbench: need --workload (%s), --seconds >= 1, --clients >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	e := &runEnv{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		clients: *clients, rate: *rate, work: *work, serverBin: filepath.Join(*work, "clsm-server"),
		out: stdout, rep: newReport(),
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "clsmbench: %v: stopping\n", sig)
		runCleanups()
		os.Exit(1)
	}()
	defer func() {
		signal.Stop(sigc)
		close(sigc)
	}()
	defer runCleanups()

	if err := os.MkdirAll(filepath.Join(e.work, "tmp"), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "clsmbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Join(e.work, "tmp"), e.workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "clsmbench: %v\n", err)
		return 1
	}
	e.tmp = tmp
	atExit(func() { os.RemoveAll(tmp) })

	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d clients %d\n",
		e.workload, e.seed, e.seconds, *trace, e.clients)
	attempted, failed, err := fn(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clsmbench: %s: %v\n", e.workload, err)
		return 1
	}
	if attempted < 1 {
		fmt.Fprintf(os.Stderr, "clsmbench: %s attempted no operations\n", e.workload)
		return 1
	}
	e.rep.print(stdout)
	for _, p := range e.problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	fmt.Fprintf(stdout, "operations attempted %d failed %d; checks %s\n",
		attempted, failed, map[bool]string{true: "passed", false: "FAILED"}[len(e.problems) == 0])
	line, err := e.rep.resultLine(e.trace, len(e.problems) == 0, attempted, failed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clsmbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
