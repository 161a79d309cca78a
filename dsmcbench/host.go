package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// host is the provenance every result carries: what ran, where, and
// the memory system it ran on.
type host struct {
	GitSHA       string `json:"git_sha"`   // "" outside a git checkout
	GitDirty     *bool  `json:"git_dirty"` // nil outside a git checkout
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	L2Bytes      int64  `json:"l2_bytes"` // per core
	L3Bytes      int64  `json:"l3_bytes"`
	// CopyGBps is the sustained copy bandwidth, counting bytes read
	// plus bytes written, over two arrays of CopyArrayBytes each.
	CopyGBps       float64 `json:"copy_gbps"`
	CopyArrayBytes int64   `json:"copy_array_bytes"`
}

func hostInfo(root string) *host {
	h := &host{
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		SourceSHA256: sourceHash(root),
	}
	h.L2Bytes, h.L3Bytes = cacheSizes()
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			dirty := len(strings.TrimSpace(string(st))) > 0
			h.GitDirty = &dirty
		}
	}
	return h
}

// cacheSizes reads the per-core L2 and the L3 size from sysfs; 0 when
// the host does not expose them.
func cacheSizes() (l2, l3 int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		size := parseSize(readTrim(filepath.Join(d, "size")))
		switch level {
		case "2":
			l2 = size
		case "3":
			l3 = size
		}
	}
	return l2, l3
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseSize parses a sysfs cache size such as "2048K" or "105M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// measureCopy measures the sustained copy bandwidth over two arrays
// that each hold four times the L3 (at least 256 MiB; 4 MiB when tiny),
// copying with one goroutine per worker, and keeps the median of five
// passes.
func (h *host) measureCopy(tiny bool) {
	n := 4 * h.L3Bytes
	if n < 256<<20 {
		n = 256 << 20
	}
	if tiny {
		n = 4 << 20
	}
	src, dst := make([]byte, n), make([]byte, n)
	for i := 0; i < len(src); i += 4096 {
		src[i] = byte(i >> 12)
	}
	copy(dst, src) // fault every page in before timing
	var rates []float64
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		var wg sync.WaitGroup
		chunk := (len(src) + numWorkers - 1) / numWorkers
		for w := 0; w < numWorkers; w++ {
			lo, hi := w*chunk, min((w+1)*chunk, len(src))
			wg.Add(1)
			go func() {
				defer wg.Done()
				copy(dst[lo:hi], src[lo:hi])
			}()
		}
		wg.Wait()
		rates = append(rates, 2*float64(n)/time.Since(start).Seconds()/1e9)
	}
	h.CopyGBps, h.CopyArrayBytes = median(rates), n
	src, dst = nil, nil
	runtime.GC()
	debug.FreeOSMemory()
}

// cpuTicks reads the host's aggregate CPU time from /proc/stat: the
// ticks stolen by the hypervisor and all ticks; zeros when unreadable.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSS returns a process's peak resident set size (VmHWM) in bytes;
// 0 when it cannot be read.
func peakRSS(pid int) int64 {
	return statusField(pid, "VmHWM:")
}

// statusField reads one kB-valued field of /proc/<pid>/status in bytes.
func statusField(pid int, field string) int64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// sourceHash identifies the source tree when no git metadata is there:
// a SHA-256 over the paths and contents of its Go sources and go.mod
// files, skipping hidden directories such as the build directory.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	sum := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		sum.Write([]byte(rel + "\x00"))
		sum.Write(b)
	}
	return hex.EncodeToString(sum.Sum(nil))
}
