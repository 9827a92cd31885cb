package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat times (100
// on every Linux architecture Go supports).
const clockTicks = 100

// stealSeconds returns the CPU time the hypervisor has withheld from this
// host's CPUs since boot, summed over CPUs: the steal column of the "cpu"
// line of /proc/stat. It returns 0 where /proc/stat is unavailable.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / clockTicks
}

// stealWeight is the wall-time cost of hypervisor steal: each 1% of the
// host's CPU time stolen during an iteration lengthened it by about 2.5%,
// fitted to the measured iterations of the four workloads on a 2-vCPU VM
// (see README.md). Steal costs more than its share because the engine's
// workers advance in step (the build and sweep stages hand realizations to
// each other, and each series ends at a barrier), so a stalled vCPU holds
// up the other one too.
const stealWeight = 2.5

// netWall is an iteration's wall time net of hypervisor steal: an
// estimate of the wall time it would have taken had no CPU time been
// withheld. On a shared VM a withheld vCPU stretched the engine's wall
// time by up to 2× for minutes at a time while its CPU time moved by about
// 10%.
func netWall(it iteration) float64 {
	return it.wall / (1 + stealWeight*it.steal)
}

// resetPeakRSS resets the kernel's peak-RSS mark (VmHWM) of this
// process, so the next peakRSSMB reads the peak since the reset. It
// reports false where /proc/self/clear_refs is unavailable.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB returns the process's peak resident set size in MiB: VmHWM
// from /proc/self/status, or ru_maxrss (KiB on Linux) without /proc.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeSample is a reading of the Go runtime counters the benchmark
// reports as the runtime layer.
type runtimeSample struct {
	allocBytes, gcCycles, gcCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(m metrics.Sample) float64 {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		case metrics.KindFloat64:
			return m.Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0]), val(s[1]), val(s[2])}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timingSummary reports a timing as the choosing-metrics rule asks: the
// median, the highest percentile that still has at least ten samples
// beyond it (absent below 11 samples), and the sample count.
type timingSummary struct {
	Median float64  `json:"median"`
	Tail   *float64 `json:"tail,omitempty"`
	TailQ  *float64 `json:"tail_q,omitempty"`
	N      int      `json:"n"`
}

func summarize(xs []float64) timingSummary {
	t := timingSummary{Median: median(xs), N: len(xs)}
	if n := len(xs); n >= 11 {
		q := math.Floor(100*float64(n-10)/float64(n)) / 100
		v := quantile(xs, q)
		t.Tail, t.TailQ = &v, &q
	}
	return t
}

// hostInfo is the run metadata every result carries.
type hostInfo struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readHost() hostInfo {
	return hostInfo{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Kernel:     kernelRelease(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit("."),
	}
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
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

// gitCommit resolves HEAD by reading .git directly (no git process), or
// returns "unknown" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(packed, []byte("\n")) {
		if sha, name, ok := strings.Cut(string(line), " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
