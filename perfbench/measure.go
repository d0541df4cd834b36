package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// epoch anchors now(): every timestamp in a run is monotonic nanoseconds
// since process start.
var epoch = time.Now()

// now returns monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// Histogram layout: values below subCount nanoseconds get exact buckets;
// above, every power of two is split into subCount linear sub-buckets, so
// a bucket is at most 1/subCount (0.8%) of its value wide. Quantiles
// interpolate inside the bucket.
const (
	subBits     = 7
	subCount    = 1 << subBits
	histBuckets = subCount * (64 - subBits + 1)
)

// hist is a fixed-size log-linear latency histogram. Recording never
// allocates, so timed loops can record every operation. Not safe for
// concurrent use: give each goroutine its own and merge.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	e := bits.Len64(u) - subBits - 1
	return (e+1)*subCount + int(u>>uint(e)) - subCount
}

func bucketRange(i int) (lo, width float64) {
	if i < subCount {
		return float64(i), 1
	}
	e := i/subCount - 1
	m := uint64(i%subCount + subCount)
	return float64(m << uint(e)), float64(uint64(1) << uint(e))
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/fc
		}
		cum += fc
	}
	lo, w := bucketRange(histBuckets - 1)
	return lo + w
}

// beyond reports how many samples lie above the q-quantile's rank.
func (h *hist) beyond(q float64) int64 {
	return int64(float64(h.n) - math.Ceil(q*float64(h.n)))
}

// syncHist is a hist shared by goroutines that record rarely relative to
// their work (server-side taps on a wire op).
type syncHist struct {
	mu sync.Mutex
	h  hist
}

func (s *syncHist) record(ns int64) {
	s.mu.Lock()
	s.h.record(ns)
	s.mu.Unlock()
}

// median returns the median of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// liveHeap forces collection and returns the bytes the collection found
// live — unlike HeapAlloc, not moved by what other goroutines allocate
// after it.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	return s[0].Value.Uint64()
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	schedLatencyMetric = "/sched/latencies:seconds"
	heapObjectsMetric  = "/memory/classes/heap/objects:bytes"
	heapLiveMetric     = "/gc/heap/live:bytes"
)

// runtimeProbe measures the Go process over a traced window: CPU, heap
// allocations, GC work, scheduling latency and peak heap (sampled by a
// goroutine the probe owns and stops).
type runtimeProbe struct {
	wall0  int64
	cpu0   time.Duration
	ms0    runtime.MemStats
	sched0 *metrics.Float64Histogram

	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func readSched() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: schedLatencyMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s[0].Value.Float64Histogram()
}

func startProbe() *runtimeProbe {
	p := &runtimeProbe{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&p.ms0)
	p.sched0 = readSched()
	p.cpu0 = cpuTime()
	p.wall0 = now()
	go p.sampleHeap()
	return p
}

func (p *runtimeProbe) sampleHeap() {
	defer close(p.done)
	s := []metrics.Sample{{Name: heapObjectsMetric}}
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			if v := s[0].Value.Uint64(); v > p.peak.Load() {
				p.peak.Store(v)
			}
		}
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
	}
}

// finish stops the probe and reports its metrics, per op where the name
// says so.
func (p *runtimeProbe) finish(r *report, ops int64) {
	wall := now() - p.wall0
	cpu := cpuTime() - p.cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	sched1 := readSched()
	close(p.stop)
	<-p.done

	r.set("runtime.cpu_util", "ratio", float64(cpu)/float64(wall)/float64(runtime.NumCPU()), 1)
	r.set("runtime.cpu_us_per_op", "us", perOp(float64(cpu)/1e3, ops), ops)
	r.set("runtime.allocs_per_op", "count", perOp(float64(ms1.Mallocs-p.ms0.Mallocs), ops), ops)
	r.set("runtime.gc_cycles", "count", float64(ms1.NumGC-p.ms0.NumGC), 1)
	r.set("runtime.gc_pause_ms", "ms", float64(ms1.PauseTotalNs-p.ms0.PauseTotalNs)/1e6, int64(ms1.NumGC-p.ms0.NumGC))
	r.set("runtime.heap_peak_mb", "MB", float64(p.peak.Load())/(1<<20), 1)
	p99, n := schedQuantile(p.sched0, sched1, 0.99)
	r.set("runtime.sched_latency_p99_us", "us", p99*1e6, n)
}

// schedQuantile returns the q-quantile (seconds) of the scheduling
// latencies recorded between two histogram snapshots, interpolating inside
// the bucket, and the sample count.
func schedQuantile(a, b *metrics.Float64Histogram, q float64) (float64, int64) {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0, 0
	}
	var total uint64
	d := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		d[i] = b.Counts[i] - a.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0, 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range d {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := b.Buckets[i], b.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo, int64(total)
			}
			return lo + (hi-lo)*(rank-cum)/float64(c), int64(total)
		}
		cum += float64(c)
	}
	return b.Buckets[len(b.Buckets)-1], int64(total)
}

// heapMB records heap_mb, the live heap the program retains: the live
// heap before release drops the program's last reference, minus the live
// heap after. Both reads see the same benchmark state, so none of it is
// counted; inputs, the benchmark's own, stay reachable across both.
func heapMB(r *report, release func(), inputs ...any) {
	held := liveHeap()
	release()
	freed := liveHeap()
	runtime.KeepAlive(inputs)
	r.set("heap_mb", "MB", float64(int64(held)-int64(freed))/(1<<20), 1)
}
