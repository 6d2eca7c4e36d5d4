package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// resident-set high-water mark at the current resident set, so the
// peak read at the end of the measured window belongs to that window
// and not to the reference run or the set-up rounds before it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB is the resident-set high-water mark (VmHWM) in MiB since
// the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("reading VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// allocs is a Go runtime snapshot for the proc.* per-layer metrics.
type allocs struct {
	bytes uint64 // cumulative heap bytes allocated
	gcs   uint32 // completed GC cycles
}

func readAllocs() allocs {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocs{m.TotalAlloc, m.NumGC}
}

func (a allocs) since(b allocs) allocs { return allocs{a.bytes - b.bytes, a.gcs - b.gcs} }
