package telemetry

// Prometheus text exposition (format version 0.0.4) for snapshots. It
// lives in the core package — it is pure text generation, no net/http —
// so the telemetryhttp handler, cmd/glsstat, and any embedding service
// share one implementation. Counters map to *_total families, states to
// gauges, and the log-bucketed latency histograms to native Prometheus
// histograms whose le bounds are the power-of-two bucket edges in seconds.
//
// Series identity: every per-lock sample carries {key, label, kind} plus,
// for the dual-sided counters of RW locks, side="write"/"read". The GLK
// mode is deliberately a separate info-style gauge (gls_lock_mode) rather
// than a label on every family — a mode transition would otherwise break
// every series' continuity exactly when the lock gets interesting.

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// promRow is one sample line: a rendered label set and a value.
type promRow struct {
	labels string
	value  string
}

// promWriter accumulates exposition text, remembering the first error.
type promWriter struct {
	w    io.Writer
	err  error
	seen map[string]bool // histogram families whose HELP/TYPE went out
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// family writes one HELP/TYPE header and its sample lines; families with
// no rows are skipped entirely.
func (p *promWriter) family(name, typ, help string, rows []promRow) {
	if len(rows) == 0 {
		return
	}
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, r := range rows {
		p.printf("%s{%s} %s\n", name, r.labels, r.value)
	}
}

func promUint(v uint64) string  { return strconv.FormatUint(v, 10) }
func promInt(v int64) string    { return strconv.FormatInt(v, 10) }
func promSecs(ns uint64) string { return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64) }

// WritePromText writes the snapshot in the Prometheus text exposition
// format, version 0.0.4. Output is deterministic for a given snapshot:
// families in fixed order, locks in the snapshot's contention order.
func (s *Snapshot) WritePromText(w io.Writer) error {
	p := &promWriter{w: w}

	type fam struct{ name, typ, help string }
	rows := map[string][]promRow{}
	var order []fam
	add := func(f fam, labels, value string) {
		if _, seen := rows[f.name]; !seen {
			order = append(order, f)
		}
		rows[f.name] = append(rows[f.name], promRow{labels: labels, value: value})
	}

	famAcq := fam{"gls_lock_acquisitions_total", "counter", "Successful lock acquisitions."}
	famCont := fam{"gls_lock_contended_total", "counter", "Acquisitions that found the lock held."}
	famTryFail := fam{"gls_lock_trylock_failures_total", "counter", "TryLock attempts that returned false (aborted waits included)."}
	famTimeout := fam{"gls_lock_timeouts_total", "counter", "Acquisitions abandoned on deadline expiry."}
	famCancel := fam{"gls_lock_cancels_total", "counter", "Acquisitions abandoned on context cancellation."}
	famTrans := fam{"gls_lock_transitions_total", "counter", "GLK mode / RW family transitions."}
	famPresent := fam{"gls_lock_present", "gauge", "Goroutines currently at the lock (holder included)."}
	famMode := fam{"gls_lock_mode", "gauge", "Current GLK mode as an info series (value is always 1)."}
	famSamples := fam{"gls_lock_samples_total", "counter", "Timed (sampled) acquisitions."}
	famWaitSum := fam{"gls_lock_wait_seconds_total", "counter", "Total sampled acquisition wait time."}
	famHoldSum := fam{"gls_lock_hold_seconds_total", "counter", "Total sampled hold (critical section) time."}
	famDrain := fam{"gls_lock_writer_drain_seconds_total", "counter", "Sampled writer time spent draining readers (RW locks)."}
	famPhases := fam{"gls_lock_reader_bypass_phases_total", "counter", "Writer phases that bypassed blocked readers (glsfair)."}
	famStarved := fam{"gls_lock_readers_starved_total", "counter", "Readers that crossed the starvation bound (glsfair)."}

	for i := range s.Locks {
		l := &s.Locks[i]
		base := promBaseLabels(l)
		wside := base + `,side="write"`
		rside := base + `,side="read"`
		add(famAcq, wside, promUint(l.Acquisitions))
		add(famCont, wside, promUint(l.Contended))
		add(famTryFail, wside, promUint(l.TryFails))
		add(famTimeout, base, promUint(l.Timeouts))
		add(famCancel, base, promUint(l.Cancels))
		add(famTrans, base, promUint(l.TransitionCount()))
		add(famPresent, wside, promInt(l.Present))
		if l.Mode != "" {
			add(famMode, base+`,mode="`+promEscape(l.Mode)+`"`, "1")
		}
		add(famSamples, wside, promUint(l.Samples))
		add(famWaitSum, wside, promSecs(l.WaitNanos))
		add(famHoldSum, wside, promSecs(l.HoldNanos))
		if l.IsRW {
			add(famAcq, rside, promUint(l.RAcquisitions))
			add(famCont, rside, promUint(l.RContended))
			add(famTryFail, rside, promUint(l.RTryFails))
			add(famPresent, rside, promInt(l.RPresent))
			add(famSamples, rside, promUint(l.RSamples))
			add(famWaitSum, rside, promSecs(l.RWaitNanos))
			add(famDrain, base, promSecs(l.WDrainNanos))
			add(famPhases, base, promUint(l.RWaitPhases))
			add(famStarved, base, promUint(l.RStarved))
		}
	}

	// Registry-level series first, then the per-lock families in insertion
	// order, then the latency histograms.
	p.printf("# HELP gls_locks Live locks in the registry snapshot.\n# TYPE gls_locks gauge\ngls_locks %d\n", len(s.Locks))
	p.printf("# HELP gls_sample_period Timed-sampling period in arrivals.\n# TYPE gls_sample_period gauge\ngls_sample_period %d\n", s.SamplePeriod)
	p.printf("# HELP gls_retired_locks_total Locks unregistered (freed).\n# TYPE gls_retired_locks_total counter\ngls_retired_locks_total %d\n", s.Retired.Locks)
	p.printf("# HELP gls_retired_acquisitions_total Acquisitions folded from retired locks.\n# TYPE gls_retired_acquisitions_total counter\ngls_retired_acquisitions_total %d\n", s.Retired.Acquisitions+s.Retired.RAcquisitions)

	// Per-shard roll-up, present only for sharded services: the labels are
	// just {shard}, so these families stay low-cardinality however many
	// keys the tables hold.
	if len(s.Shards) > 0 {
		famShLocks := fam{"gls_shard_locks", "gauge", "Live locks in the table shard."}
		famShHeld := fam{"gls_shard_held", "gauge", "Shard locks with at least one goroutine present."}
		famShAcq := fam{"gls_shard_acquisitions_total", "counter", "Acquisitions (both sides, retired included) in the shard."}
		famShCont := fam{"gls_shard_contended_total", "counter", "Contended acquisitions (both sides, retired included) in the shard."}
		famShRet := fam{"gls_shard_retired_locks_total", "counter", "Locks freed out of the shard."}
		for i := range s.Shards {
			sh := &s.Shards[i]
			lbl := fmt.Sprintf(`shard="%d"`, sh.Shard)
			add(famShLocks, lbl, promUint(sh.Locks))
			add(famShHeld, lbl, promUint(sh.Held))
			add(famShAcq, lbl, promUint(sh.Acquisitions))
			add(famShCont, lbl, promUint(sh.Contended))
			add(famShRet, lbl, promUint(sh.Retired))
		}
	}
	for _, f := range order {
		p.family(f.name, f.typ, f.help, rows[f.name])
	}

	// Histogram families last, each family's samples contiguous (the
	// exposition format requires one group per metric name).
	for i := range s.Locks {
		l := &s.Locks[i]
		base := promBaseLabels(l)
		p.histogram("gls_lock_wait_seconds", "Sampled acquisition wait latency (log2 buckets).",
			base+`,side="write"`, l.WaitHist, l.WaitNanos)
		p.histogram("gls_lock_wait_seconds", "Sampled acquisition wait latency (log2 buckets).",
			base+`,side="read"`, l.RWaitHist, l.RWaitNanos)
	}
	for i := range s.Locks {
		l := &s.Locks[i]
		p.histogram("gls_lock_hold_seconds", "Sampled hold latency (log2 buckets).",
			promBaseLabels(l)+`,side="write"`, l.HoldHist, l.HoldNanos)
	}
	return p.err
}

// promBaseLabels renders the identity labels shared by every family of one
// lock.
func promBaseLabels(l *LockSnapshot) string {
	return fmt.Sprintf(`key="%#x",label="%s",kind="%s"`, l.Key, promEscape(l.Label), promEscape(l.Kind))
}

// histHeaders tracks which histogram families already wrote HELP/TYPE, so
// multi-lock output keeps one header per family (the exposition format
// forbids repeats).
func (p *promWriter) histogram(name, help, labels string, buckets []uint64, sumNanos uint64) {
	if len(buckets) == 0 {
		return
	}
	if !p.histSeen(name) {
		p.printf("# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}
	var cum uint64
	for i, c := range buckets {
		cum += c
		// Bucket i covers [2^(i-1), 2^i) ns; its le bound is 2^i ns in
		// seconds.
		le := strconv.FormatFloat(float64(uint64(1)<<uint(i))/1e9, 'g', -1, 64)
		p.printf("%s_bucket{%s,le=%q} %d\n", name, labels, le, cum)
	}
	p.printf("%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, cum)
	p.printf("%s_sum{%s} %s\n", name, labels, promSecs(sumNanos))
	p.printf("%s_count{%s} %d\n", name, labels, cum)
}

// histSeen records (and reports) whether name's header went out already.
func (p *promWriter) histSeen(name string) bool {
	if p.seen == nil {
		p.seen = map[string]bool{}
	}
	if p.seen[name] {
		return true
	}
	p.seen[name] = true
	return false
}
