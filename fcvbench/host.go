package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU so far, from getrusage.
// Hypervisor steal stretches wall time but barely moves it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeapMiB forces a collection and returns the live heap. The
// second collection empties the sync.Pool victim caches the first one
// only demoted, so pooled buffers do not count as live.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuTicks is the host-wide busy and steal tick counts from the
// aggregate line of /proc/stat.
type cpuTicks struct {
	busy, steal uint64
	ok          bool
}

func readCPUTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		// user nice system idle iowait irq softirq steal ...
		var v [8]uint64
		for i := range v {
			v[i], _ = strconv.ParseUint(fields[i+1], 10, 64)
		}
		busy := v[0] + v[1] + v[2] + v[5] + v[6] + v[7]
		return cpuTicks{busy: busy, steal: v[7], ok: true}
	}
	return cpuTicks{}
}

// stealPct is the hypervisor's share of busy CPU between two readings,
// in percent; -1 when /proc/stat is unreadable.
func stealPct(a, b cpuTicks) float64 {
	if !a.ok || !b.ok || b.busy <= a.busy {
		return -1
	}
	return 100 * float64(b.steal-a.steal) / float64(b.busy-a.busy)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostNoise is what a reader needs to judge a run's figures: the
// machine, and how much of the CPU the hypervisor took while it ran.
type hostNoise struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	StealPct   float64 `json:"steal_pct"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
}

func newHostNoise(t0, t1 cpuTicks, wall, cpu time.Duration) hostNoise {
	return hostNoise{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StealPct:   stealPct(t0, t1),
		WallS:      wall.Seconds(),
		CPUS:       cpu.Seconds(),
	}
}

// heavySteal marks a run whose wall-time figures should not be
// trusted: past this share the measured wall throughput on a 2-vCPU
// host fell by a fifth.
const heavySteal = 10.0

func (h hostNoise) warning() string {
	if h.StealPct >= heavySteal {
		return fmt.Sprintf("WARNING: hypervisor steal %.1f%% of busy CPU; wall-time figures are inflated, compare cpu_ms_per_op", h.StealPct)
	}
	return ""
}
