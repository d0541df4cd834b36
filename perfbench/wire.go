package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gls"
	"gls/client"
	"gls/internal/xrand"
	"gls/server"
	"gls/telemetry"
)

// wire-trylock and wire-wait sizes.
const (
	wireKeys      = 1 << 16
	wireHotKeys   = 4
	wireSessions  = 2
	wireStreamLen = 1 << 18
	wireBatch     = server.MaxBatchKeys

	wireSetups = 7

	// The server never shrinks its lease heap, so the heap retains
	// capacity for its peak length. Set-up leases every key of the
	// keyspace within one TTL, far more than a run holds in one TTL, so
	// the peak is fixed by the keyspace rather than by the run's
	// throughput, and heap_mb does not step with it.
	leaseTTL    = time.Second
	waitTimeout = 2 * time.Second
	sweepPeriod = 50 * time.Millisecond // the server's default sweep interval

	// heapSettle is how long after the sessions close heap_mb is read: the
	// lease records must be due and swept, and the client's per-reply 5s
	// timers must all have fired, or those firing between heapMB's two
	// reads would be counted.
	heapSettle = 5*time.Second + 100*time.Millisecond
)

// drainSetup waits until the set-up's touch leases are due and swept, so
// the run's leases never stack on them and the lease heap's peak stays
// the set-up's.
func drainSetup() { time.Sleep(leaseTTL + 2*sweepPeriod) }

// wireSession is the client surface the wire workloads drive;
// *client.Conn implements it, and the self-test substitutes sessions
// whose tokens repeat.
type wireSession interface {
	TryLock(key uint64, ttl time.Duration) (uint64, error)
	Lock(ctx context.Context, key uint64, ttl, timeout time.Duration) (uint64, error)
	Unlock(key uint64) error
}

// fence passes every grant's token through a client.FencedStore, and
// additionally requires it to be strictly above the last token accepted
// for the key: the store alone accepts a repeated token (the same holder
// writing twice), but two grants must never share one.
type fence struct {
	st *client.FencedStore
}

// newFence builds a store with an entry for every key, so the run's
// writes never grow it.
func newFence(keys []uint64) *fence {
	f := &fence{st: client.NewFencedStore()}
	for _, k := range keys {
		_ = f.st.Write(k, 0, 0) // token 0 is below every real token: cannot fail
	}
	return f
}

func (f *fence) grant(key, token uint64) error {
	if _, last := f.st.Read(key); token <= last {
		return fmt.Errorf("key %#x granted token %d, not above the last accepted %d", key, token, last)
	}
	return f.st.Write(key, token, token)
}

// wireResult is one session generator's counts and timings over one
// phase.
type wireResult struct {
	attempted, granted, pairs                 int64
	busy, timeouts, overloads, errs, violated int64
	firstErr                                  error

	acq hist // client-observed acquire latency

	// Traced runs only.
	unlock, self *hist // client unlock call; client acquire span minus its server span
	spans        []span
}

// wireResults holds every session's results per phase: [session][phase].
type wireResults [][]*wireResult

func newWireResults(sessions, phases int, traced bool) wireResults {
	rs := make(wireResults, sessions)
	for g := range rs {
		rs[g] = make([]*wireResult, phases+1) // slot 0: warm-up
		for p := range rs[g] {
			r := &wireResult{}
			if traced {
				r.unlock, r.self = new(hist), new(hist)
				r.spans = make([]span, 0, spanCap)
			}
			rs[g][p] = r
		}
	}
	return rs
}

func (w *wireResult) fail(err error) {
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// failed counts acquisitions that failed: errors, wait timeouts and
// overload refusals. BUSY is a legitimate trylock outcome, not a failure.
func (w *wireResult) failed() int64 { return w.errs + w.timeouts + w.overloads }

// add sums o's counts into w.
func (w *wireResult) add(o *wireResult) {
	w.attempted += o.attempted
	w.granted += o.granted
	w.pairs += o.pairs
	w.busy += o.busy
	w.timeouts += o.timeouts
	w.overloads += o.overloads
	w.errs += o.errs
	w.violated += o.violated
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}

// merge sums the sessions' results of phase p, or of every phase when p
// is negative.
func (rs wireResults) merge(p int) *wireResult {
	m := &wireResult{}
	traced := rs[0][0].unlock != nil
	if traced {
		m.unlock, m.self = new(hist), new(hist)
	}
	for _, phases := range rs {
		for i, r := range phases {
			if p >= 0 && i != p {
				continue
			}
			m.add(r)
			m.acq.merge(&r.acq)
			if traced {
				m.unlock.merge(r.unlock)
				m.self.merge(r.self)
			}
			m.spans = append(m.spans, r.spans...)
		}
	}
	return m
}

func (rs wireResults) stats() []phaseStat {
	out := make([]phaseStat, len(rs[0])-1)
	for p := range out {
		m := rs.merge(p + 1)
		out[p] = phaseStat{ops: m.pairs, writes: m.pairs, acq: &m.acq}
	}
	return out
}

// wireDrive runs one generator per session for d: acquire (TryLock, or
// Lock when wait), the fencing check, the hold (wait only), Unlock. taps,
// in traced runs, are the server ends of the sessions, read for the
// server-side spans.
func wireDrive(sessions []wireSession, taps []*tapConn, streams [][]uint64, wait bool, f *fence, warm, d time.Duration, mid func(), res wireResults) []time.Duration {
	ctx := context.Background()
	acqName := "client.trylock"
	if wait {
		acqName = "client.lock"
	}
	return runWindow(len(sessions), len(res[0])-1, warm, d, mid, func(g int, phase *atomic.Int32) {
		s, stream := sessions[g], streams[g]
		var tap *tapConn
		if taps != nil {
			tap = taps[g]
		}
		mask := len(stream) - 1
		var sink uint64
		for i := 0; ; i++ {
			p := phase.Load()
			if p < 0 {
				return
			}
			out := res[g][p]
			k := stream[i&mask]
			out.attempted++
			t0 := now()
			var tok uint64
			var err error
			if wait {
				tok, err = s.Lock(ctx, k, leaseTTL, waitTimeout)
			} else {
				tok, err = s.TryLock(k, leaseTTL)
			}
			t1 := now()
			if err != nil {
				var se *client.ServerError
				switch {
				case errors.Is(err, client.ErrBusy):
					out.busy++
				case errors.Is(err, client.ErrTimeout):
					out.timeouts++
				case errors.As(err, &se) && se.Code == server.ErrCodeOverload:
					out.overloads++
				default:
					out.errs++
					out.fail(err)
					if errors.Is(err, client.ErrClosed) {
						return
					}
				}
				continue
			}
			out.granted++
			out.acq.record(t1 - t0)
			if err := f.grant(k, tok); err != nil {
				out.violated++
				out.fail(err)
			}
			if wait {
				sink = work(holdRounds, sink+tok)
			}
			t2 := now()
			err = s.Unlock(k)
			t3 := now()
			if err != nil {
				out.errs++
				out.fail(err)
				if errors.Is(err, client.ErrClosed) {
					return
				}
				continue
			}
			out.pairs++
			if tap == nil {
				continue
			}
			out.unlock.record(t3 - t2)
			aStart, aEnd := tap.acqRead.Load(), tap.acqEnd.Load()
			out.self.record((t1 - t0) - (aEnd - aStart))
			if i&spanMask == 0 {
				op := uint64(g)<<40 | uint64(i)
				out.spans = appendSpans(out.spans,
					span{Op: op, Name: "op", Start: t0, End: t3},
					span{Op: op, Name: acqName, Parent: "op", Start: t0, End: t1},
					span{Op: op, Name: "server.acquire", Parent: acqName, Start: aStart, End: aEnd},
					span{Op: op, Name: "client.unlock", Parent: "op", Start: t2, End: t3},
					span{Op: op, Name: "server.request", Parent: "client.unlock", Start: tap.reqRead.Load(), End: tap.reqEnd.Load()})
			}
		}
	})
}

// tap is a benchmark-owned listener in front of the server: it wraps every
// accepted connection in a tapConn that counts the server's reads and
// writes and times each request from read to reply.
type tap struct {
	net.Listener
	on atomic.Bool // record histograms only inside the traced window

	mu    sync.Mutex
	conns []*tapConn

	request syncHist // request read → synchronous reply written
	q2g     syncHist // QUEUED written → GRANT written
}

func (t *tap) Accept() (net.Conn, error) {
	c, err := t.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c, tap: t}
	t.mu.Lock()
	t.conns = append(t.conns, tc)
	t.mu.Unlock()
	return tc, nil
}

// session returns the server end of the i-th accepted connection.
func (t *tap) session(i int) *tapConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.conns[i]
}

func (t *tap) totals() (reads, writes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.conns {
		reads += c.reads.Load()
		writes += c.writes.Load()
	}
	return
}

// tapConn is the server's end of one session. Each session runs one
// request at a time (closed loop), so the latest read is the request the
// next reply answers. Timestamps are stored before the reply is written,
// so the client, once it holds the reply, reads them complete.
type tapConn struct {
	net.Conn
	tap *tap

	reads, writes atomic.Int64
	readAt        atomic.Int64
	queuedAt      atomic.Int64
	reqRead       atomic.Int64 // latest synchronous request: read …
	reqEnd        atomic.Int64 // … and reply written
	acqRead       atomic.Int64 // latest acquisition: request read …
	acqEnd        atomic.Int64 // … and GRANTED/GRANT written
}

var (
	grantAsync = []byte("GRANT ")
	grantSync  = []byte("GRANTED")
	queued     = []byte("QUEUED")
)

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.readAt.Store(now())
		c.reads.Add(1)
	}
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	t := now()
	c.writes.Add(1)
	read := c.readAt.Load()
	on := c.tap.on.Load()
	if bytes.HasPrefix(p, grantAsync) {
		c.acqRead.Store(read)
		c.acqEnd.Store(t)
		if on {
			c.tap.q2g.record(t - c.queuedAt.Load())
		}
		return c.Conn.Write(p)
	}
	if bytes.HasPrefix(p, queued) {
		c.queuedAt.Store(t)
	}
	if bytes.HasPrefix(p, grantSync) {
		c.acqRead.Store(read)
		c.acqEnd.Store(t)
	}
	c.reqRead.Store(read)
	c.reqEnd.Store(t)
	if on {
		c.tap.request.record(t - read)
	}
	return c.Conn.Write(p)
}

// wireEnv is one loopback glsd with its client sessions.
type wireEnv struct {
	srv       *server.Server
	tap       *tap // traced runs only
	ln        net.Listener
	serveDone chan error
	conns     []*client.Conn
}

// wireSetup builds the server as cmd/glsd builds it by default (a
// telemetry registry, every other option at its default), serves it on
// loopback, dials the sessions and touches every key once through them.
func wireSetup(touch []uint64, f *fence, traced bool) (*wireEnv, error) {
	reg := telemetry.New(telemetry.Options{})
	srv, err := server.New(server.Options{Service: gls.Options{Telemetry: reg}})
	if err != nil {
		return nil, err
	}
	env := &wireEnv{srv: srv, serveDone: make(chan error, 1)}
	if traced {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, err
		}
		env.tap = &tap{Listener: ln}
		env.ln = env.tap
	} else if env.ln, err = srv.Listen("127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, err
	}
	go func() { env.serveDone <- srv.Serve(env.ln) }()
	for i := 0; i < wireSessions; i++ {
		c, err := client.Dial(env.ln.Addr().String())
		if err != nil {
			env.close()
			return nil, err
		}
		env.conns = append(env.conns, c)
	}
	// The sessions touch alternate batches at once, so set-up stays well
	// inside one lease TTL: every touch lease is then live at its end, and
	// the lease heap's peak is the key count, not a function of timing.
	errs := make(chan error, len(env.conns))
	for g, c := range env.conns {
		go func(g int, c *client.Conn) {
			errs <- touchKeys(c, touch, g, len(env.conns), f)
		}(g, c)
	}
	for range env.conns {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// touchKeys acquires and releases every n-th batch of keys, from the
// g-th, passing each grant through the fence.
func touchKeys(c *client.Conn, keys []uint64, g, n int, f *fence) error {
	for i := g * wireBatch; i < len(keys); i += n * wireBatch {
		batch := keys[i:min(i+wireBatch, len(keys))]
		toks, err := c.TryLockMany(leaseTTL, batch...)
		if err != nil {
			return fmt.Errorf("touching keys: %w", err)
		}
		for k, tok := range toks {
			if err := f.grant(k, tok); err != nil {
				return err
			}
		}
		if _, err := c.UnlockMany(batch...); err != nil {
			return fmt.Errorf("touching keys: %w", err)
		}
	}
	return nil
}

func (e *wireEnv) sessions() []wireSession {
	out := make([]wireSession, len(e.conns))
	for i, c := range e.conns {
		out[i] = c
	}
	return out
}

// taps returns the server ends of the sessions in dial order: each Dial
// completes a round trip, so its connection was accepted before the next.
func (e *wireEnv) taps() []*tapConn {
	out := make([]*tapConn, len(e.conns))
	for i := range out {
		out[i] = e.tap.session(i)
	}
	return out
}

func (e *wireEnv) closeSessions() {
	for _, c := range e.conns {
		_ = c.Close() // teardown: nothing is held, and the server sees EOF either way
	}
	e.conns = nil
}

// close stops everything the environment started and waits for it.
func (e *wireEnv) close() {
	e.closeSessions()
	e.srv.Close()
	_ = e.ln.Close() // the tap is the benchmark's; srv.Close closed its own
	<-e.serveDone
}

// settle waits until no lease is held and no acquisition is queued or in
// flight (a pool worker may still be retiring a wait whose GRANT the
// client already acted on), for at most two seconds.
func (e *wireEnv) settle() server.Stats {
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := e.srv.Stats()
		if (st.Waiting == 0 && st.Held == 0) || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

// wireInputs builds the keyspace set-up touches and per-session key
// streams: uniform over the whole keyspace (trylock) or over its first
// wireHotKeys keys (wait).
func wireInputs(seed uint64, wait bool) (keys []uint64, streams [][]uint64) {
	keys = make([]uint64, wireKeys)
	for i := range keys {
		keys[i] = keyOf(seed, uint64(i))
	}
	n := uint64(wireKeys)
	if wait {
		n = wireHotKeys
	}
	rng := xrand.NewSplitMix64(seed)
	streams = make([][]uint64, wireSessions)
	for g := range streams {
		s := make([]uint64, wireStreamLen)
		for i := range s {
			s[i] = keys[rng.Uintn(n)]
		}
		streams[g] = s
	}
	return keys, streams
}

func runWireTryLock(cfg config, r *report) { runWire(cfg, r, false) }
func runWireWait(cfg config, r *report)    { runWire(cfg, r, true) }

// runWire runs wire-trylock or wire-wait.
func runWire(cfg config, r *report, wait bool) {
	name := "wire-trylock"
	if wait {
		name = "wire-wait"
	}
	keys, streams := wireInputs(cfg.seed, wait)
	var f *fence
	prepare := func() { f = newFence(keys) }
	setup := func() (*wireEnv, error) { return wireSetup(keys, f, cfg.trace) }

	if !cfg.trace {
		res := newWireResults(wireSessions, phasesFor(cfg.window), false)
		env, err := setupRuns(r, wireSetups, prepare, setup, (*wireEnv).close)
		if err != nil {
			r.check(false, "%s: set-up: %v", name, err)
			return
		}
		drainSetup()
		st0 := env.srv.Stats()
		durs := wireDrive(env.sessions(), nil, streams, wait, f, warmUp, cfg.window, nil, res)
		endToEndRates(r, res.stats(), durs)
		m := res.merge(-1)
		r.set("busy_ratio", "ratio", perOp(float64(m.busy), m.attempted), m.attempted)
		checkWire(r, name, env, st0, m)
		env.closeSessions()
		time.Sleep(heapSettle)
		heapMB(r, func() { env.close(); env = nil }, keys, streams, res, f)
		r.attempted, r.failed = m.attempted, m.failed()
		return
	}

	prepare()
	env, err := setup()
	if err != nil {
		r.check(false, "%s: set-up: %v", name, err)
		return
	}
	defer env.close()
	drainSetup()
	st0 := env.srv.Stats()
	svc := env.srv.Service()
	res := newWireResults(wireSessions, 1, true)
	var total wireResult
	var c0, f0, reads0, writes0 int64
	var tr0 uint64
	var stMid server.Stats
	var locksMid int
	mid := func() {
		stMid = env.srv.Stats()
		locksMid = svc.Locks()
	}
	tracedPhases(cfg, r, func(d time.Duration, traced bool) (int64, time.Duration) {
		if !traced {
			rs := newWireResults(wireSessions, 1, false)
			durs := wireDrive(env.sessions(), nil, streams, wait, f, warmFor(false), d, nil, rs)
			m := rs.merge(-1)
			total.add(m)
			return m.pairs, durs[0]
		}
		c, fr := shardTotals(svc)
		c0, f0 = int64(c), int64(fr)
		reads0, writes0 = env.tap.totals()
		tr0 = transitions(svc)
		env.tap.on.Store(true)
		durs := wireDrive(env.sessions(), env.taps(), streams, wait, f, warmFor(true), d, mid, res)
		env.tap.on.Store(false)
		m := res.merge(-1)
		total.add(m)
		return m.pairs, durs[0]
	})
	c1, f1 := shardTotals(svc)
	reads1, writes1 := env.tap.totals()
	m := res.merge(-1)
	pairs := m.pairs

	r.set("gls.creates_per_op", "count", perOp(float64(int64(c1)-c0), pairs), pairs)
	r.set("gls.frees_per_op", "count", perOp(float64(int64(f1)-f0), pairs), pairs)
	r.set("gls.locks", "count", float64(locksMid), 1)
	r.set("glk.transitions", "count", float64(transitions(svc)-tr0), pairs)
	r.set("glk.rw.transitions", "count", 0, 0)
	r.set("server.reads_per_op", "count", perOp(float64(reads1-reads0), pairs), pairs)
	r.set("server.writes_per_op", "count", perOp(float64(writes1-writes0), pairs), pairs)
	r.set("server.lease_heap_len", "count", float64(stMid.Leases), 1)
	r.set("server.busy", "count", float64(m.busy), m.attempted)
	quantiles(r, "server.request_us", "us", 1e3, &env.tap.request.h, true)
	if wait {
		quantiles(r, "server.queued_to_grant_us", "us", 1e3, &env.tap.q2g.h, true)
		quantiles(r, "client.lock_us", "us", 1e3, &m.acq, true)
	} else {
		quantiles(r, "client.trylock_us", "us", 1e3, &m.acq, true)
	}
	quantiles(r, "client.unlock_us", "us", 1e3, m.unlock, false)
	quantiles(r, "client.self_us", "us", 1e3, m.self, false)
	parseCost(r, streams, wait)

	checkWire(r, name, env, st0, &total)
	st := env.srv.Stats()
	r.set("server.timeouts", "count", float64(st.Timeouts-st0.Timeouts), total.attempted)
	r.set("server.overloads", "count", float64(st.Overloads-st0.Overloads), total.attempted)
	writeSpans(cfg, r, name, m.spans)
	r.attempted, r.failed = total.attempted, total.failed()
}

// transitions counts the GLK mode transitions of every lock the service
// ever created, from its telemetry registry: the server frees idle keys,
// so per-lock GLKStats lose a key's count when it is freed, and reading
// them while the lock is in use races with its holder.
func transitions(svc *gls.Service) uint64 {
	s := svc.Telemetry().Snapshot()
	n := s.Retired.Transitions
	for i := range s.Locks {
		n += s.Locks[i].TransitionCount()
	}
	return n
}

// checkGrants fails the run on a fencing violation or an unexpected
// error.
func checkGrants(r *report, name string, m *wireResult) {
	r.check(m.violated == 0, "%s: %d grants failed the fencing check (first: %v)", name, m.violated, m.firstErr)
	r.check(m.errs == 0, "%s: %d operations failed (first: %v)", name, m.errs, m.firstErr)
}

// checkWire runs checkGrants and reconciles the client's counts against
// the server's: every grant the clients saw and nothing else, nothing
// held or waiting at the end, and the same timeouts and overload refusals.
func checkWire(r *report, name string, env *wireEnv, st0 server.Stats, m *wireResult) {
	checkGrants(r, name, m)
	st := env.settle()
	r.check(st.Grants-st0.Grants == uint64(m.granted), "%s: server granted %d leases, clients counted %d", name, st.Grants-st0.Grants, m.granted)
	r.check(st.Held == 0, "%s: server holds %d leases after the run", name, st.Held)
	r.check(st.Waiting == 0, "%s: server has %d acquisitions waiting after the run", name, st.Waiting)
	r.check(st.Timeouts-st0.Timeouts == uint64(m.timeouts), "%s: server timed out %d waits, clients saw %d", name, st.Timeouts-st0.Timeouts, m.timeouts)
	r.check(st.Overloads-st0.Overloads == uint64(m.overloads), "%s: server refused %d waits, clients saw %d", name, st.Overloads-st0.Overloads, m.overloads)
}

// parseCost times server.ParseCommand on the request lines the workload
// sends.
func parseCost(r *report, streams [][]uint64, wait bool) {
	const n = 1 << 14
	lines := make([]string, 0, 2*n)
	for i := 0; i < n; i++ {
		k := "0x" + strconv.FormatUint(streams[0][i], 16)
		if wait {
			lines = append(lines, "wait "+strconv.Itoa(i+1)+" "+k+" 1000 2000")
		} else {
			lines = append(lines, "trylock "+k+" 1000")
		}
		lines = append(lines, "unlock "+k)
	}
	var per []float64
	for rep := 0; rep < 3; rep++ {
		t0 := now()
		for _, l := range lines {
			if _, perr := server.ParseCommand(l, server.MaxBatchKeys); perr != nil {
				r.check(false, "server.ParseCommand(%q): %v", l, perr)
				return
			}
		}
		per = append(per, float64(now()-t0)/float64(len(lines)))
	}
	r.set("server.parse_ns", "ns", median(per), int64(3*len(lines)))
}
