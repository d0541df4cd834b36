package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gls"
)

// Load shape shared by every workload: one process, closed loop, at most
// generators goroutines (the box's nproc), each issuing its next op only
// after the previous one completed.
const (
	generators = 2

	// phaseLen splits an untraced window into phases; the end-to-end rates
	// and latency percentiles are medians over the phases, so a short
	// disturbance moves one phase, not the result.
	phaseLen  = time.Second
	maxPhases = 30
	// warmUp runs the workload unmeasured before a window, after a
	// collection has settled the heap set-up grew: the first second after
	// set-up runs measurably slower (caches, page tables, the set-up's GC).
	warmUp = time.Second

	// spanMask keeps the spans of every 1024th op; spanCap bounds them
	// per generator.
	spanMask = 1023
	spanCap  = 4096
)

// phasesFor returns the number of phases in an untraced window of d.
func phasesFor(d time.Duration) int {
	return max(1, min(maxPhases, int(d/phaseLen)))
}

// runWindow starts n generators, releases them together, lets them warm
// up for warm, then runs them for d, split into phases equal parts.
// Before each op a generator loads phase and records into that slot of its
// results: 0 while warming up, 1..phases for the measured parts, negative
// once the window is over. It returns each measured part's duration. mid,
// if non-nil, runs halfway through the measured window.
func runWindow(n, phases int, warm, d time.Duration, mid func(), gen func(g int, phase *atomic.Int32)) []time.Duration {
	var phase atomic.Int32
	if warm <= 0 {
		phase.Store(1)
	}
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	ready.Add(n)
	wg.Add(n)
	for g := 0; g < n; g++ {
		go func(g int) {
			defer wg.Done()
			ready.Done()
			<-start
			gen(g, &phase)
		}(g)
	}
	ready.Wait()
	close(start)
	if warm > 0 {
		time.Sleep(warm)
		phase.Store(1)
	}
	t0 := now()
	durs := make([]time.Duration, phases)
	prev, midDone := t0, mid == nil
	for p := 0; p < phases; p++ {
		end := t0 + int64(d)*int64(p+1)/int64(phases)
		if !midDone && end-t0 >= int64(d)/2 {
			time.Sleep(time.Duration(t0 + int64(d)/2 - now()))
			mid()
			midDone = true
		}
		time.Sleep(time.Duration(end - now()))
		t := now()
		if p+1 < phases {
			phase.Store(int32(p + 2))
		} else {
			phase.Store(-1)
		}
		durs[p] = time.Duration(t - prev)
		prev = t
	}
	wg.Wait()
	durs[phases-1] += time.Duration(now() - prev) // ops finishing after the stop
	return durs
}

// phaseStat is what the end-to-end metrics need from one phase.
type phaseStat struct {
	ops, writes int64
	acq         *hist
}

// endToEndRates records ops_per_s, write_ops_per_s and the acquire
// latency percentiles, each the median of its per-phase values. The tail
// the end-to-end metrics carry is p90: on this class of box (2 vCPUs with
// stolen time) wire-wait's p99 moved by half between runs of the same
// code, as the share of ops that met a descheduled holder crossed 1%.
// acquire_p99_us stays on the report line.
func endToEndRates(r *report, stats []phaseStat, durs []time.Duration) {
	var ops, writes, p50, p90, p99 []float64
	var nOps, nWrites, nAcq, beyond int64
	for i, s := range stats {
		sec := durs[i].Seconds()
		ops = append(ops, float64(s.ops)/sec)
		writes = append(writes, float64(s.writes)/sec)
		p50 = append(p50, s.acq.quantile(0.50)/1e3)
		p90 = append(p90, s.acq.quantile(0.90)/1e3)
		p99 = append(p99, s.acq.quantile(0.99)/1e3)
		nOps += s.ops
		nWrites += s.writes
		nAcq += int64(s.acq.n)
		beyond += s.acq.beyond(0.99)
	}
	r.set("ops_per_s", "acquisitions/s", median(ops), nOps)
	r.set("write_ops_per_s", "acquisitions/s", median(writes), nWrites)
	r.set("acquire_p50_us", "us", median(p50), nAcq)
	r.set("acquire_p90_us", "us", median(p90), nAcq)
	r.set("acquire_p99_us", "us", median(p99), nAcq)
	r.set("acquire_p99_us.beyond", "count", float64(beyond), nAcq)
	r.series["ops_per_s"] = ops
	r.series["acquire_p50_us"] = p50
	r.series["acquire_p90_us"] = p90
	r.series["acquire_p99_us"] = p99
}

// setupRuns times n set-ups, each after a collection, and keeps the last;
// setup_s is the median. Before each, prepare (if non-nil) runs untimed;
// every environment but the last is torn down.
func setupRuns[T any](r *report, n int, prepare func(), setup func() (T, error), teardown func(T)) (env T, err error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if prepare != nil {
			prepare()
		}
		runtime.GC()
		t0 := now()
		env, err = setup()
		el := now() - t0
		if err != nil {
			return env, err
		}
		times = append(times, float64(el)/1e9)
		if i < n-1 {
			teardown(env)
		}
	}
	r.set("setup_s", "s", median(times), int64(n))
	runtime.GC()
	return env, nil
}

// tracedPhases is the traced-run protocol: an untraced window, then a
// traced window under a runtime probe, each half of cfg.window. drive
// runs one window and returns its completed pairs and elapsed time.
func tracedPhases(cfg config, r *report, drive func(d time.Duration, traced bool) (int64, time.Duration)) {
	half := cfg.window / 2
	runtime.GC()
	u, ue := drive(half, false)
	p := startProbe()
	t, te := drive(half, true)
	p.finish(r, t)
	ur := float64(u) / ue.Seconds()
	tr := float64(t) / te.Seconds()
	r.set("trace.untraced_ops_per_s", "acquisitions/s", ur, u)
	r.set("trace.traced_ops_per_s", "acquisitions/s", tr, t)
	overhead := 0.0
	if ur > 0 {
		overhead = (ur - tr) / ur * 100
	}
	r.set("trace.overhead_pct", "%", overhead, t)
}

// quantiles records p50 (and p99 when withP99) of h under prefix, scaled
// from nanoseconds by div.
func quantiles(r *report, prefix, unit string, div float64, h *hist, withP99 bool) {
	r.set(prefix+".p50", unit, h.quantile(0.50)/div, int64(h.n))
	if withP99 {
		r.set(prefix+".p99", unit, h.quantile(0.99)/div, int64(h.n))
	}
}

// shardTotals sums the service's lifetime entry creates and frees.
func shardTotals(svc *gls.Service) (creates, frees uint64) {
	for _, s := range svc.ShardStats() {
		creates += s.Creates
		frees += s.Frees
	}
	return
}

// perOp divides a count by the pairs it was spread over.
func perOp(v float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return v / float64(ops)
}

// noServer records the wire-layer counts as zero for workloads that never
// reach the server, so every traced run reports every per-layer name.
func noServer(r *report) {
	for _, n := range []string{"server.reads_per_op", "server.writes_per_op", "server.lease_heap_len", "server.busy", "server.timeouts", "server.overloads"} {
		r.set(n, "count", 0, 0)
	}
}

// span is one sampled timing of a layer call; spans of one op share Op,
// and Parent names the enclosing span.
type span struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// appendSpans adds ss to dst unless that would outgrow dst's capacity, so
// recording never allocates.
func appendSpans(dst []span, ss ...span) []span {
	if len(dst)+len(ss) > cap(dst) {
		return dst
	}
	return append(dst, ss...)
}

// writeSpans dumps the sampled spans, one JSON object per line.
func writeSpans(cfg config, r *report, name string, spans []span) {
	if cfg.spansDir == "" || len(spans) == 0 {
		return
	}
	if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
		r.check(false, "spans: %v", err)
		return
	}
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		r.check(false, "spans: %v", err)
		return
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		r.check(false, "spans: %v", err)
		return
	}
	r.spansFile = path
}

// warmFor returns the warm-up of a traced-run half: the untraced half
// warms up; the traced half follows it directly.
func warmFor(traced bool) time.Duration {
	if traced {
		return 0
	}
	return warmUp
}
