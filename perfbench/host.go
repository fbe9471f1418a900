package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostFingerprint names what timings depend on, so figures from different
// hosts are never compared silently.
func hostFingerprint() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	memGB := 0.0
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) == nil {
		memGB = float64(si.Totalram) * float64(si.Unit) / (1 << 30)
	}
	return fmt.Sprintf("gomaxprocs=%d numcpu=%d cpu=%q go=%s os=%s/%s mem_gb=%.1f",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, runtime.Version(), runtime.GOOS, runtime.GOARCH, memGB)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// allocCounter brackets a stretch of work with runtime.ReadMemStats.
type allocCounter struct{ mallocs, bytes uint64 }

func startAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{ms.Mallocs, ms.TotalAlloc}
}

// since returns the mallocs and bytes allocated since c was taken.
func (c allocCounter) since() (mallocs, bytes float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - c.mallocs), float64(ms.TotalAlloc - c.bytes)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
