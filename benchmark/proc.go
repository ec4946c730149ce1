package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ioStat is the part of /proc/<pid>/io the benchmark reads: bytes and
// calls through read and write syscalls, page-cache hits included.
type ioStat struct {
	rchar, wchar, syscr, syscw uint64
}

func readIO(pid string) (ioStat, error) {
	b, err := os.ReadFile("/proc/" + pid + "/io")
	if err != nil {
		return ioStat{}, fmt.Errorf("read io counters: %w", err)
	}
	var s ioStat
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			continue
		}
		switch name {
		case "rchar":
			s.rchar = v
		case "wchar":
			s.wchar = v
		case "syscr":
			s.syscr = v
		case "syscw":
			s.syscw = v
		}
	}
	return s, nil
}

func (a ioStat) sub(b ioStat) ioStat {
	return ioStat{a.rchar - b.rchar, a.wchar - b.wchar, a.syscr - b.syscr, a.syscw - b.syscw}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// readStatCPU returns the user+system CPU time of process pid from
// /proc/<pid>/stat.
func readStatCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("read process stat: %w", err)
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// selfStat is this process's CPU time (getrusage), peak RSS, and the Go
// runtime's cumulative allocation and GC CPU figures.
type selfStat struct {
	cpu        time.Duration
	maxRSSKB   int64
	allocObjs  uint64
	allocBytes uint64
	gcCPU      float64
}

var selfSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// readSelf is not safe for concurrent use (it fills selfSamples in place,
// so it does not allocate).
func readSelf() selfStat {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid pointer
	metrics.Read(selfSamples)
	s := selfStat{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB: ru.Maxrss,
	}
	if selfSamples[0].Value.Kind() == metrics.KindUint64 {
		s.allocObjs = selfSamples[0].Value.Uint64()
	}
	if selfSamples[1].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = selfSamples[1].Value.Uint64()
	}
	if selfSamples[2].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = selfSamples[2].Value.Float64()
	}
	return s
}

// dirBytes walks dir and returns the bytes of all regular files and of the
// sorted tables (*.sst) among them.
func dirBytes(dir string) (total, tables uint64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += uint64(info.Size())
		if strings.HasSuffix(path, ".sst") {
			tables += uint64(info.Size())
		}
		return nil
	})
	return total, tables, err
}
