package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// memAvailableMB reads MemAvailable from /proc/meminfo, in MB of 10^6
// bytes like every other memory figure here (0 if unreadable).
func memAvailableMB() int64 {
	v, _ := procField("/proc/meminfo", "MemAvailable:")
	kb, _ := strconv.ParseInt(strings.TrimSuffix(v, " kB"), 10, 64)
	return kb * 1024 / 1e6
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	v, err := procField("/proc/cpuinfo", "model name")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(strings.TrimPrefix(v, ":"))
}

// procField returns the trimmed remainder of the first line of a /proc file
// that starts with prefix.
func procField(path, prefix string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no %q line", path, prefix)
}

// procCPU returns the user+system CPU time a process has used so far, from
// /proc/<pid>/stat (clock ticks of 1/100 s).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// allowedCPUs counts the CPUs in a process's affinity mask — the GOMAXPROCS
// a Go process picks when the variable is unset.
func allowedCPUs(pid int) int {
	v, err := procField(fmt.Sprintf("/proc/%d/status", pid), "Cpus_allowed_list:")
	if err != nil {
		return 0
	}
	n := 0
	for _, part := range strings.Split(v, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, _ := strconv.Atoi(lo)
		b := a
		if isRange {
			b, _ = strconv.Atoi(hi)
		}
		n += b - a + 1
	}
	return n
}

// gomaxprocsOf reports the GOMAXPROCS a child process runs with: the
// environment's setting when one is exported, else its CPU affinity.
func gomaxprocsOf(pid int) int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	return allowedCPUs(pid)
}

// stealTime returns the CPU time the hypervisor has taken from this
// machine's CPUs since boot (the steal column of /proc/stat), 0 if unknown.
// Steal is why wall times on a shared host spread more than CPU times.
func stealTime() time.Duration {
	v, err := procField("/proc/stat", "cpu ")
	if err != nil {
		return 0
	}
	f := strings.Fields(v)
	if len(f) < 8 {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[7], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

// rusageCPU is the user+system CPU time of a rusage record.
func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB converts a child's rusage high-water mark (KiB on Linux) to MB.
func peakRSSMB(ru *syscall.Rusage) float64 {
	return float64(ru.Maxrss) * 1024 / 1e6
}

// runtimeCounters samples the Go runtime's cumulative heap and GC totals.
type runtimeCounters struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64 // seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// readRuntime samples the runtime counters. It reuses one sample slice, so
// callers must not call it from two goroutines at once.
func readRuntime() runtimeCounters {
	metrics.Read(runtimeSamples)
	return runtimeCounters{
		allocBytes:   runtimeSamples[0].Value.Uint64(),
		allocObjects: runtimeSamples[1].Value.Uint64(),
		gcCycles:     runtimeSamples[2].Value.Uint64(),
		gcCPU:        runtimeSamples[3].Value.Float64(),
	}
}
