package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// procStat is a snapshot of the process-wide counters the end-to-end and
// runtime metrics difference over a measured phase.
type procStat struct {
	cpu        time.Duration // user + system CPU time of the process
	allocBytes uint64        // cumulative heap bytes allocated
	allocObjs  uint64        // cumulative heap objects allocated
	gcCPU      float64       // cumulative GC CPU seconds (runtime estimate)
	totalCPU   float64       // cumulative CPU seconds (runtime estimate)
	gcCycles   uint64        // completed GC cycles
}

var statNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

// readProcStat takes a snapshot.
func readProcStat() procStat {
	ss := make([]metrics.Sample, len(statNames))
	for i, n := range statNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procStat{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ss[0].Value.Uint64(),
		allocObjs:  ss[1].Value.Uint64(),
		gcCPU:      ss[2].Value.Float64(),
		totalCPU:   ss[3].Value.Float64(),
		gcCycles:   ss[4].Value.Uint64(),
	}
}

// sub is the growth from an earlier snapshot.
func (p procStat) sub(o procStat) procStat {
	return procStat{
		cpu:        p.cpu - o.cpu,
		allocBytes: p.allocBytes - o.allocBytes,
		allocObjs:  p.allocObjs - o.allocObjs,
		gcCPU:      p.gcCPU - o.gcCPU,
		totalCPU:   p.totalCPU - o.totalCPU,
		gcCycles:   p.gcCycles - o.gcCycles,
	}
}

// add is the sum of two counter growths.
func (p procStat) add(o procStat) procStat {
	return procStat{
		cpu:        p.cpu + o.cpu,
		allocBytes: p.allocBytes + o.allocBytes,
		allocObjs:  p.allocObjs + o.allocObjs,
		gcCPU:      p.gcCPU + o.gcCPU,
		totalCPU:   p.totalCPU + o.totalCPU,
		gcCycles:   p.gcCycles + o.gcCycles,
	}
}

// resetPeakRSS starts a fresh peak-RSS window: it collects garbage,
// returns free memory to the OS and resets the kernel's high-water mark
// to the current RSS. It reports false where the kernel does not support
// the reset; peakRSSMB then covers the whole process lifetime.
func resetPeakRSS() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's peak resident set size since the last
// resetPeakRSS (or since start), in MiB.
func peakRSSMB() float64 {
	if st, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(st, []byte("\n")) {
			if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
				f := bytes.Fields(rest) // "<n> kB"
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(string(f[0]), 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// goroutines is the live goroutine count.
func goroutines() int {
	s := []metrics.Sample{{Name: "/sched/goroutines:goroutines"}}
	metrics.Read(s)
	return int(s[0].Value.Uint64())
}
