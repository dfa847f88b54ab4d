package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssBytes reads the process's resident set size from /proc/self/statm.
func rssBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("unexpected /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return pages * int64(os.Getpagesize()), nil
}

// rssSampler records the resident set size every 10ms until stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // bytes
	err     error
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				b, err := rssBytes()
				if err != nil {
					r.err = err
					return
				}
				r.samples = append(r.samples, float64(b))
			}
		}
	}()
	return r
}

// peak stops the sampling and returns the 95th percentile sample: the
// high-water mark the process holds, steadier than the single highest
// sample, which moves with the timing of garbage collection.
func (r *rssSampler) peak() (float64, error) {
	close(r.stop)
	<-r.done
	if r.err != nil {
		return 0, fmt.Errorf("reading the resident set: %w", r.err)
	}
	return percentile(r.samples, 0.95)
}

// runtimeStats are the cumulative Go runtime counters a window's
// allocation and GC share derive from.
type runtimeStats struct {
	allocBytes float64 // /gc/heap/allocs:bytes
	gcCPU      float64 // /cpu/classes/gc/total:cpu-seconds
	totalCPU   float64 // /cpu/classes/total:cpu-seconds
}

func readRuntimeStats() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeStats{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}

// window is the runtime activity between two readings.
type window struct {
	cpu   time.Duration
	stats runtimeStats
}

func (w window) gcShare() float64 {
	if w.stats.totalCPU <= 0 {
		return 0
	}
	return w.stats.gcCPU / w.stats.totalCPU
}

// meterWindow starts a window; the returned function closes it.
func meterWindow() func() window {
	c0, s0 := cpuTime(), readRuntimeStats()
	return func() window {
		s1 := readRuntimeStats()
		return window{
			cpu: cpuTime() - c0,
			stats: runtimeStats{
				allocBytes: s1.allocBytes - s0.allocBytes,
				gcCPU:      s1.gcCPU - s0.gcCPU,
				totalCPU:   s1.totalCPU - s0.totalCPU,
			},
		}
	}
}
