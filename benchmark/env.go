package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// environment is stamped on every output, so a reader can tell which
// machine, and above all which disk, a number came from before comparing.
type environment struct {
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	GitCommit    string  `json:"git_commit"`
	Seed         int64   `json:"seed"`
	WarmupS      float64 `json:"warmup_s"`
	WindowS      float64 `json:"window_s"`
	TraceWindowS float64 `json:"trace_window_s"`
	NoFile       uint64  `json:"rlimit_nofile"`
	// FsyncProbeUs is the median of 500 append-600-bytes-then-fsync calls
	// in the ledger directory's filesystem: ~100 us and ~2500 us sandboxes
	// both exist among this repository's past records, and serve_strict
	// is bound by it.
	FsyncProbeUs float64 `json:"env.fsync_probe_us"`
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

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func noFileLimit() uint64 {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return 0
	}
	return lim.Cur
}

// fsyncProbe times n append-then-fsync calls of 600 bytes — one decision
// and its line item, roughly — on a scratch file in dir.
func fsyncProbe(dir string, n int) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 600)
	us := make([]float64, n)
	for i := range us {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(start)) / 1e3
	}
	sort.Float64s(us)
	return us[n/2], nil
}

func newEnvironment(cfg *config) environment {
	return environment{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GitCommit:    gitCommit(),
		Seed:         cfg.seed,
		WarmupS:      cfg.warmup.Seconds(),
		WindowS:      cfg.window.Seconds(),
		TraceWindowS: cfg.traceWindow.Seconds(),
		NoFile:       noFileLimit(),
	}
}

// cpuTime is the user+system CPU time of who (a getrusage target) so far.
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(%d): %v", who, err)) // cannot fail for these targets on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is the whole process's CPU time.
func processCPU() time.Duration { return cpuTime(syscall.RUSAGE_SELF) }

// threadCPU is the calling thread's CPU time (Linux's RUSAGE_THREAD).
func threadCPU() time.Duration { return cpuTime(1) }

// heapMB is the live heap after two forced collections (the second frees
// what finalizers of the first released).
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
