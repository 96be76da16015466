package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"time"
)

// percentile returns the exact nearest-rank q-quantile of xs, 0 < q ≤ 1:
// the smallest sample with at least q·len(xs) samples at or below it.
// It is always an observed value, so it never exceeds the maximum.
// xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return s[k]
}

// median returns the median of xs, the mean of the middle two samples
// when their number is even. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := len(s) / 2
	if len(s)%2 == 1 {
		return s[k]
	}
	return (s[k-1] + s[k]) / 2
}

// roundStats collects each job's round rate and round-time percentiles.
// The metrics it sets are medians over jobs, so a job that ran while the
// host was busy moves them less than it would move pooled figures.
type roundStats struct {
	rates, p50s, p90s []float64
	samples           int
}

// add records one job that ran rounds rounds in wall, with roundMs the
// time of each timed round.
func (s *roundStats) add(rounds int, wall time.Duration, roundMs []float64) {
	s.rates = append(s.rates, float64(rounds)/wall.Seconds())
	s.p50s = append(s.p50s, percentile(roundMs, 0.5))
	s.p90s = append(s.p90s, percentile(roundMs, 0.9))
	s.samples += len(roundMs)
}

// set records rounds_per_s, round_ms_p50 and round_ms_p90.
func (s *roundStats) set(res *result) {
	res.set("rounds_per_s", median(s.rates), len(s.rates))
	res.set("round_ms_p50", median(s.p50s), s.samples)
	res.set("round_ms_p90", median(s.p90s), s.samples)
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perRound divides a total duration over n rounds, in milliseconds.
func perRound(d time.Duration, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return msOf(d) / float64(n)
}

// runtimeSnap is a reading of the Go runtime's cumulative counters.
type runtimeSnap struct {
	allocBytes uint64
	gcCPU      float64 // GC CPU time, without idle-priority marking
	usedCPU    float64 // CPU time the program used, without idle time
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readRuntime() runtimeSnap {
	s := slices.Clone(runtimeSamples)
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64() - s[2].Value.Float64(),
		usedCPU:    s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

// setRuntime records runtime.alloc_mb_per_round and
// runtime.gc_cpu_fraction (the garbage collector's share of the CPU time
// the program used; marking that only fills idle processors does not
// count) for the interval between two readings.
func setRuntime(res *result, from, to runtimeSnap, rounds int64) {
	if rounds > 0 {
		res.set("runtime.alloc_mb_per_round", float64(to.allocBytes-from.allocBytes)/1e6/float64(rounds), 0)
	}
	if cpu := to.usedCPU - from.usedCPU; cpu > 0 {
		res.set("runtime.gc_cpu_fraction", (to.gcCPU-from.gcCPU)/cpu, 0)
	}
}

// memSampler tracks the peak of the memory the Go runtime holds in use,
// sampled on a timer while a job runs: everything it has mapped from
// the operating system, less what it has returned and the free heap
// spans it has not returned yet. Leaving the free spans out keeps the
// figure from depending on when the background scavenger last ran.
type memSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

var memSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
	{Name: "/memory/classes/heap/free:bytes"},
}

func heldBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64() - s[2].Value.Uint64()
}

func startMemSampler(every time.Duration) *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	s := slices.Clone(memSamples)
	m.peak = heldBytes(s)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				m.peak = max(m.peak, heldBytes(s))
				return
			case <-t.C:
				m.peak = max(m.peak, heldBytes(s))
			}
		}
	}()
	return m
}

// Stop ends sampling and returns the peak in megabytes.
func (m *memSampler) Stop() float64 {
	close(m.stop)
	m.wg.Wait()
	return float64(m.peak) / 1e6
}

// environment is the block recorded with every result.
func environment(commit string, seed uint64) map[string]any {
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu":           cpuModel(),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"seed":          seed,
	}
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

// sourceDigest hashes the Go sources and module files under root, so
// a result names the code it measured even where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
