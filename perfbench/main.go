// Command perfbench is the repository benchmark: it drives the lock stack
// through its public APIs — the locks algorithms, the adaptive glk locks,
// the gls Service and Handle, the glsd server and the Go client — on four
// closed-loop workloads, checks every run for correctness, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run:
// spans and counts around every call the benchmark makes into a layer,
// plus an uncontended layer ladder).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload lib-zipf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is a report
// with every metric the run measured (workload-specific spans included),
// each metric's sample count, and the run's metadata: GOMAXPROCS, CPU
// count and model, Go version, commit, source digest and seed. A failed
// correctness check prints correct=false and exits 1; bad usage exits 2
// without a result.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd are the metrics of an untraced run, per_layer those of a traced
// run; BENCHMARK.json lists the same names with the same units.
var (
	endToEnd = []string{
		"setup_s", "ops_per_s", "write_ops_per_s",
		"acquire_p50_us", "acquire_p90_us", "heap_mb",
	}
	perLayer = []string{
		"locks.ticket.pair_ns", "locks.ticket.allocs_per_op",
		"glk.pair_ns", "glk.allocs_per_op",
		"glk.rw.read_pair_ns", "glk.rw.read_allocs_per_op",
		"gls.service.pair_ns", "gls.service.allocs_per_op",
		"gls.handle.pair_ns", "gls.handle.allocs_per_op",
		"gls.create_ns", "gls.free_ns", "gls.bytes_per_key",
		"server.pipe_pair_us", "server.pipe_allocs_per_op",
		"server.tcp_pair_us", "server.tcp_allocs_per_op",
		"client.pair_us", "client.allocs_per_op",
		"gls.creates_per_op", "gls.frees_per_op", "gls.locks",
		"glk.transitions", "glk.rw.transitions",
		"server.reads_per_op", "server.writes_per_op", "server.lease_heap_len",
		"server.busy", "server.timeouts", "server.overloads",
		"runtime.cpu_util", "runtime.cpu_us_per_op", "runtime.allocs_per_op",
		"runtime.gc_cycles", "runtime.heap_peak_mb", "runtime.sched_latency_p99_us",
		"trace.overhead_pct", "fail_ratio",
	}
)

// config is one run's settings.
type config struct {
	seed     uint64
	window   time.Duration
	trace    bool
	spansDir string
}

// workload is one benchmark input set. run performs set-up, the measured
// window(s) and the correctness checks, recording into r.
type workload struct {
	name string
	run  func(cfg config, r *report)
}

var workloads = []workload{
	{"lib-zipf", runLibZipf},
	{"lib-rw-hot", runLibRWHot},
	{"wire-trylock", runWireTryLock},
	{"wire-wait", runWireWait},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics, sample counts, failed checks and
// acquisition counts.
type report struct {
	metrics   map[string]metric
	samples   map[string]int64
	failures  []string
	attempted int64
	failed    int64
	spansFile string
	series    map[string][]float64 // per-phase values behind a median
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int64{}, series: map[string][]float64{}}
}

// set records a metric measured over n samples.
func (r *report) set(name, unit string, v float64, n int64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// check records a failed correctness check unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return len(r.failures) == 0 }

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne runs workload w and the ladder (traced runs) into a fresh report.
func runOne(w workload, cfg config) *report {
	r := newReport()
	w.run(cfg, r)
	if cfg.trace {
		runLadder(cfg, r)
		if r.attempted > 0 {
			r.set("fail_ratio", "ratio", float64(r.failed)/float64(r.attempted), r.attempted)
		}
	}
	return r
}

// emit prints the report line and then the result line.
func emit(out io.Writer, r *report, cfg config, name string, meta map[string]any) error {
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := r.metrics[n]
		r.check(ok, "metric %s was not measured", n)
		if ok {
			res.Metrics[n] = m
		}
	}
	res.Correct = r.correct()

	type sampled struct {
		metric
		Samples int64 `json:"samples"`
	}
	all := map[string]sampled{}
	for n, m := range r.metrics {
		all[n] = sampled{m, r.samples[n]}
	}
	m := map[string]any{"workload": name, "seed": cfg.seed, "seconds": cfg.window.Seconds(), "trace": cfg.trace}
	for k, v := range meta {
		m[k] = v
	}
	if r.spansFile != "" {
		m["spans_file"] = r.spansFile
	}
	line := map[string]any{"report": map[string]any{"meta": m, "metrics": all, "phases": r.series, "failures": r.failures}}
	enc := json.NewEncoder(out)
	if err := enc.Encode(line); err != nil {
		return err
	}
	return enc.Encode(res)
}

// runMeta describes the machine and the code under test, so a result from
// another machine or toolchain is identifiable as such.
func runMeta(commit string) map[string]any {
	return map[string]any{
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_digest": sourceDigest("."),
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

// sourceDigest hashes every Go source and module file under root (hidden
// directories skipped), identifying the code when no commit is known.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		commit   = flag.String("commit", "unknown", "commit under test, recorded in the report")
		spansDir = flag.String("spans-dir", "", "directory for sampled span dumps of traced runs (empty: none)")
	)
	flag.Parse()
	var list []workload
	if *name == "all" {
		list = workloads
	} else if w, ok := findWorkload(*name); ok {
		list = []workload{w}
	}
	if len(list) == 0 || flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s|all> --seed N --seconds S --trace 0|1\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	cfg := config{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		spansDir: *spansDir,
	}
	meta := runMeta(*commit)
	code := 0
	for _, w := range list {
		r := runOne(w, cfg)
		if err := emit(os.Stdout, r, cfg, w.name, meta); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		if !r.correct() {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d failed checks: %s\n", w.name, len(r.failures), strings.Join(r.failures, "; "))
			code = 1
		}
	}
	os.Exit(code)
}
