package main

import (
	"sync/atomic"
	"time"

	"gls"
	"gls/internal/xrand"
)

const (
	// csRounds is the fixed critical section of the library workloads;
	// holdRounds the wire-wait hold. Both are rounds of work().
	csRounds   = 16
	holdRounds = 4096

	// sampleMask times every 32nd library op in untraced runs, so the
	// clock reads stay off most ops; traced runs time every call.
	sampleMask = 31
)

// lib-zipf and lib-rw-hot sizes.
const (
	zipfKeys      = 1 << 20
	zipfTheta     = 0.99
	zipfStreamLen = 1 << 21
	zipfSetups    = 3
	zipfHotKeys   = 8

	rwKeys      = 8
	rwWriteFrac = 10 // one op in rwWriteFrac is a write
	rwStreamLen = 1 << 22
	rwSetups    = 101
)

// fmix64 is the murmur3 finalizer: a bijection with fmix64(0) == 0.
func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// keyOf maps index i to a distinct non-zero key under seed: spread like
// object addresses, so keys scatter over shards and buckets.
func keyOf(seed, i uint64) uint64 { return fmix64(i + 1 + seed<<32) }

// work is the fixed critical-section body: rounds of an LCG step.
func work(rounds int, x uint64) uint64 {
	for i := 0; i < rounds; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// genResult is one generator's counts and timings over one phase.
type genResult struct {
	ops        int64 // completed acquire+release pairs
	writes     int64 // exclusive (write-side) pairs
	violations int64
	sink       uint64 // keeps reader work observable

	acq hist // acquire latency: sampled untraced, every op traced

	// Traced runs only.
	acquire, release, racquire *hist // exclusive/write acquire, its release, read acquire
	spans                      []span
}

// results holds every generator's results per phase: [generator][phase].
type results [][]*genResult

func newResults(gens, phases int, traced bool) results {
	rs := make(results, gens)
	for g := range rs {
		rs[g] = make([]*genResult, phases+1) // slot 0: warm-up
		for p := range rs[g] {
			r := &genResult{}
			if traced {
				r.acquire, r.release, r.racquire = new(hist), new(hist), new(hist)
				r.spans = make([]span, 0, spanCap)
			}
			rs[g][p] = r
		}
	}
	return rs
}

func (rs results) traced() bool { return rs[0][0].acquire != nil }

// merge sums the generators' results of phase p, or of every phase when
// p is negative.
func (rs results) merge(p int) *genResult {
	m := &genResult{}
	if rs.traced() {
		m.acquire, m.release, m.racquire = new(hist), new(hist), new(hist)
	}
	for _, phases := range rs {
		for i, r := range phases {
			if p >= 0 && i != p {
				continue
			}
			m.ops += r.ops
			m.writes += r.writes
			m.violations += r.violations
			m.sink ^= r.sink
			m.acq.merge(&r.acq)
			if r.acquire != nil {
				m.acquire.merge(r.acquire)
				m.release.merge(r.release)
				m.racquire.merge(r.racquire)
			}
			m.spans = append(m.spans, r.spans...)
		}
	}
	return m
}

func (rs results) stats() []phaseStat {
	out := make([]phaseStat, len(rs[0])-1)
	for p := range out {
		m := rs.merge(p + 1)
		out[p] = phaseStat{ops: m.ops, writes: m.writes, acq: &m.acq}
	}
	return out
}

// exclusiveLocker is the exclusive surface of gls.Service the library
// workloads drive; the self-test substitutes a lock without exclusion.
type exclusiveLocker interface {
	Lock(key uint64)
	Unlock(key uint64)
}

// exclusiveTrier is the surface the end-of-run checks use.
type exclusiveTrier interface {
	exclusiveLocker
	TryLock(key uint64) bool
}

// rwLocker adds the read side.
type rwLocker interface {
	exclusiveLocker
	RLock(key uint64)
	RUnlock(key uint64)
}

// zipfKey is one lib-zipf key with its owner word: a holder CASes its
// generator id in on entry and clears it on exit, so overlapping holders
// of one key are caught.
type zipfKey struct {
	key   uint64
	val   uint64
	owner atomic.Uint32
	_     [12]byte
}

// zipfInputs builds nkeys keys and one zipf(zipfTheta) index stream per
// generator, all from seed.
func zipfInputs(seed uint64, nkeys, streamLen, gens int) ([]zipfKey, [][]uint32) {
	keys := make([]zipfKey, nkeys)
	for i := range keys {
		keys[i].key = keyOf(seed, uint64(i))
	}
	rng := xrand.NewSplitMix64(seed)
	z := xrand.NewZipf(rng, nkeys, zipfTheta)
	streams := make([][]uint32, gens)
	for g := range streams {
		s := make([]uint32, streamLen)
		for i := range s {
			s[i] = uint32(z.Next())
		}
		streams[g] = s
	}
	return keys, streams
}

// zipfDrive runs the lib-zipf loop on l for d: exclusive Lock, the fixed
// critical section under the owner-word check, Unlock.
func zipfDrive(l exclusiveLocker, keys []zipfKey, streams [][]uint32, warm, d time.Duration, res results) []time.Duration {
	traced := res.traced()
	return runWindow(len(streams), len(res[0])-1, warm, d, nil, func(g int, phase *atomic.Int32) {
		stream := streams[g]
		mask := len(stream) - 1
		me := uint32(g + 1)
		for i := 0; ; i++ {
			p := phase.Load()
			if p < 0 {
				return
			}
			out := res[g][p]
			k := &keys[stream[i&mask]]
			switch {
			case traced:
				t0 := now()
				l.Lock(k.key)
				t1 := now()
				zipfSection(k, me, out)
				t2 := now()
				l.Unlock(k.key)
				t3 := now()
				out.acq.record(t1 - t0)
				out.acquire.record(t1 - t0)
				out.release.record(t3 - t2)
				if i&spanMask == 0 {
					op := uint64(g)<<40 | uint64(i)
					out.spans = appendSpans(out.spans,
						span{Op: op, Name: "op", Start: t0, End: t3},
						span{Op: op, Name: "gls.lock", Parent: "op", Start: t0, End: t1},
						span{Op: op, Name: "gls.unlock", Parent: "op", Start: t2, End: t3})
				}
			case i&sampleMask == 0:
				t0 := now()
				l.Lock(k.key)
				out.acq.record(now() - t0)
				zipfSection(k, me, out)
				l.Unlock(k.key)
			default:
				l.Lock(k.key)
				zipfSection(k, me, out)
				l.Unlock(k.key)
			}
			out.ops++
			out.writes++
		}
	})
}

func zipfSection(k *zipfKey, me uint32, out *genResult) {
	if !k.owner.CompareAndSwap(0, me) {
		out.violations++
		return
	}
	k.val = work(csRounds, k.val)
	k.owner.Store(0)
}

// zipfSetup builds the service and pre-creates every key.
func zipfSetup(keys []zipfKey) *gls.Service {
	svc := gls.New(gls.Options{})
	for i := range keys {
		svc.InitLock(keys[i].key)
	}
	return svc
}

// runLibZipf: in-process service, 2^20 keys created in set-up, zipf(0.99)
// exclusive acquisitions. gls lookup and entry cost dominate; the
// working set is far above the last-level cache.
func runLibZipf(cfg config, r *report) {
	keys, streams := zipfInputs(cfg.seed, zipfKeys, zipfStreamLen, generators)
	if !cfg.trace {
		res := newResults(generators, phasesFor(cfg.window), false)
		svc, _ := setupRuns(r, zipfSetups, nil,
			func() (*gls.Service, error) { return zipfSetup(keys), nil },
			func(s *gls.Service) { s.Close() })
		durs := zipfDrive(svc, keys, streams, warmUp, cfg.window, res)
		endToEndRates(r, res.stats(), durs)
		m := res.merge(-1)
		checkZipf(r, svc, keys, m)
		heapMB(r, func() { svc.Close(); svc = nil }, keys, streams, res)
		r.attempted = m.ops
		return
	}

	svc := zipfSetup(keys)
	res := newResults(generators, 1, true)
	var total genResult
	var c0, f0 uint64
	tracedPhases(cfg, r, func(d time.Duration, traced bool) (int64, time.Duration) {
		rs := newResults(generators, 1, false)
		if traced {
			rs = res
			c0, f0 = shardTotals(svc)
		}
		durs := zipfDrive(svc, keys, streams, warmFor(traced), d, rs)
		m := rs.merge(-1)
		total.ops += m.ops
		total.violations += m.violations
		return m.ops, durs[0]
	})
	c1, f1 := shardTotals(svc)
	m := res.merge(-1)
	quantiles(r, "gls.lock_ns", "ns", 1, m.acquire, true)
	quantiles(r, "gls.unlock_ns", "ns", 1, m.release, false)
	r.set("gls.creates_per_op", "count", perOp(float64(c1-c0), m.ops), m.ops)
	r.set("gls.frees_per_op", "count", perOp(float64(f1-f0), m.ops), m.ops)
	r.set("gls.locks", "count", float64(svc.Locks()), 1)
	var tr uint64
	for i := 0; i < zipfHotKeys; i++ {
		if st, ok := svc.GLKStats(keys[i].key); ok {
			tr += st.Transitions
		}
	}
	r.set("glk.transitions", "count", float64(tr), zipfHotKeys)
	r.set("glk.rw.transitions", "count", 0, 0)
	noServer(r)
	checkZipf(r, svc, keys, &total)
	writeSpans(cfg, r, "lib-zipf", m.spans)
	svc.Close()
	r.attempted = total.ops
}

// checkZipf fails the run on any overlapping holder, any owner word left
// set, or a hot key left locked.
func checkZipf(r *report, svc exclusiveTrier, keys []zipfKey, m *genResult) {
	r.check(m.violations == 0, "lib-zipf: %d overlapping holders caught by owner words", m.violations)
	left := 0
	for i := range keys {
		if keys[i].owner.Load() != 0 {
			left++
		}
	}
	r.check(left == 0, "lib-zipf: %d owner words still set after the run", left)
	for i := 0; i < zipfHotKeys && i < len(keys); i++ {
		ok := svc.TryLock(keys[i].key)
		r.check(ok, "lib-zipf: hot key %#x still locked after the run", keys[i].key)
		if ok {
			svc.Unlock(keys[i].key)
		}
	}
}

// rwKey is one lib-rw-hot key with its sequence word: writers make it odd
// on entry and even on exit; readers check it is even and unchanged
// across their section, without writing shared memory.
type rwKey struct {
	seq  atomic.Uint64
	data atomic.Uint64
	key  uint64
	_    [40]byte
}

const rwWriteBit = 0x80

// rwInputs builds the hot keys and one op stream per generator: the low
// bits index the key, rwWriteBit marks a write.
func rwInputs(seed uint64, streamLen, gens int) ([]rwKey, [][]uint8) {
	keys := make([]rwKey, rwKeys)
	for i := range keys {
		keys[i].key = keyOf(seed, uint64(i))
	}
	rng := xrand.NewSplitMix64(seed)
	streams := make([][]uint8, gens)
	for g := range streams {
		s := make([]uint8, streamLen)
		for i := range s {
			op := uint8(rng.Uintn(rwKeys))
			if rng.Uintn(rwWriteFrac) == 0 {
				op |= rwWriteBit
			}
			s[i] = op
		}
		streams[g] = s
	}
	return keys, streams
}

// rwDrive runs the lib-rw-hot loop on l for d.
func rwDrive(l rwLocker, keys []rwKey, streams [][]uint8, warm, d time.Duration, res results) []time.Duration {
	traced := res.traced()
	return runWindow(len(streams), len(res[0])-1, warm, d, nil, func(g int, phase *atomic.Int32) {
		stream := streams[g]
		mask := len(stream) - 1
		var sink uint64
		defer func() { res[g][0].sink = sink }()
		for i := 0; ; i++ {
			p := phase.Load()
			if p < 0 {
				return
			}
			out := res[g][p]
			op := stream[i&mask]
			k := &keys[op&(rwKeys-1)]
			timed := traced || i&sampleMask == 0
			write := op&rwWriteBit != 0
			var t0, t1 int64
			if timed {
				t0 = now()
			}
			if write {
				l.Lock(k.key)
			} else {
				l.RLock(k.key)
			}
			if timed {
				t1 = now()
				out.acq.record(t1 - t0)
			}
			if write {
				if k.seq.Add(1)&1 == 0 {
					out.violations++
				}
				k.data.Store(work(csRounds, k.data.Load()))
				k.seq.Add(1)
				l.Unlock(k.key)
				out.writes++
			} else {
				s1 := k.seq.Load()
				sink += work(csRounds, k.data.Load())
				if s1&1 != 0 || k.seq.Load() != s1 {
					out.violations++
				}
				l.RUnlock(k.key)
			}
			out.ops++
			if !traced {
				continue
			}
			name := "gls.rlock"
			if write {
				name = "gls.wlock"
				out.acquire.record(t1 - t0)
			} else {
				out.racquire.record(t1 - t0)
			}
			if i&spanMask == 0 {
				id := uint64(g)<<40 | uint64(i)
				out.spans = appendSpans(out.spans,
					span{Op: id, Name: "op", Start: t0, End: now()},
					span{Op: id, Name: name, Parent: "op", Start: t0, End: t1})
			}
		}
	})
}

// rwSetup builds the service and pins the hot keys reader-writer.
func rwSetup(keys []rwKey) *gls.Service {
	svc := gls.New(gls.Options{})
	for i := range keys {
		svc.InitRWLock(keys[i].key)
	}
	return svc
}

// runLibRWHot: in-process service, 8 keys pinned RW, 90% read and 10%
// write sections. Hot keys instead of a wide keyspace, reads beside
// writes; lookup cost is negligible.
func runLibRWHot(cfg config, r *report) {
	keys, streams := rwInputs(cfg.seed, rwStreamLen, generators)
	if !cfg.trace {
		res := newResults(generators, phasesFor(cfg.window), false)
		svc, _ := setupRuns(r, rwSetups, nil,
			func() (*gls.Service, error) { return rwSetup(keys), nil },
			func(s *gls.Service) { s.Close() })
		w0 := rwWrites(svc, keys)
		durs := rwDrive(svc, keys, streams, warmUp, cfg.window, res)
		endToEndRates(r, res.stats(), durs)
		m := res.merge(-1)
		checkRW(r, svc, keys, m, rwWrites(svc, keys)-w0)
		heapMB(r, func() { svc.Close(); svc = nil }, keys, streams, res)
		r.attempted = m.ops
		return
	}

	svc := rwSetup(keys)
	w0 := rwWrites(svc, keys)
	res := newResults(generators, 1, true)
	var total genResult
	var c0, f0 uint64
	tracedPhases(cfg, r, func(d time.Duration, traced bool) (int64, time.Duration) {
		rs := newResults(generators, 1, false)
		if traced {
			rs = res
			c0, f0 = shardTotals(svc)
		}
		durs := rwDrive(svc, keys, streams, warmFor(traced), d, rs)
		m := rs.merge(-1)
		total.ops += m.ops
		total.writes += m.writes
		total.violations += m.violations
		return m.ops, durs[0]
	})
	c1, f1 := shardTotals(svc)
	m := res.merge(-1)
	quantiles(r, "gls.rlock_ns", "ns", 1, m.racquire, true)
	quantiles(r, "gls.wlock_ns", "ns", 1, m.acquire, true)
	r.set("gls.creates_per_op", "count", perOp(float64(c1-c0), m.ops), m.ops)
	r.set("gls.frees_per_op", "count", perOp(float64(f1-f0), m.ops), m.ops)
	r.set("gls.locks", "count", float64(svc.Locks()), 1)
	var tr uint64
	for i := range keys {
		if st, ok := svc.GLKRWStats(keys[i].key); ok {
			tr += st.Transitions
		}
	}
	r.set("glk.transitions", "count", 0, 0)
	r.set("glk.rw.transitions", "count", float64(tr), rwKeys)
	noServer(r)
	checkRW(r, svc, keys, &total, rwWrites(svc, keys)-w0)
	writeSpans(cfg, r, "lib-rw-hot", m.spans)
	svc.Close()
	r.attempted = total.ops
}

// rwWrites sums the completed write sections the hot keys' locks count.
func rwWrites(svc *gls.Service, keys []rwKey) uint64 {
	var n uint64
	for i := range keys {
		if st, ok := svc.GLKRWStats(keys[i].key); ok {
			n += st.Writes
		}
	}
	return n
}

// checkRW fails the run on a torn or overlapping section, a sequence word
// left odd, a write count the locks disagree with, or a key left locked.
func checkRW(r *report, svc exclusiveTrier, keys []rwKey, m *genResult, lockWrites uint64) {
	r.check(m.violations == 0, "lib-rw-hot: %d torn or overlapping sections caught by sequence words", m.violations)
	for i := range keys {
		r.check(keys[i].seq.Load()&1 == 0, "lib-rw-hot: key %#x sequence word left odd", keys[i].key)
		ok := svc.TryLock(keys[i].key)
		r.check(ok, "lib-rw-hot: key %#x still locked after the run", keys[i].key)
		if ok {
			svc.Unlock(keys[i].key)
		}
	}
	r.check(lockWrites == uint64(m.writes), "lib-rw-hot: locks counted %d write sections, generators completed %d", lockWrites, m.writes)
}
