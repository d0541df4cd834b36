// Package server implements glsd, the network-facing GLS lock service: a
// TCP server speaking a memcached-style text protocol over the sharded
// gls.Service, with sessions (lock ownership scoped to a client
// connection's lifetime), lease-based locks (every grant carries a TTL,
// renewable, reaped by an expiry sweeper), monotonic per-key fencing
// tokens on every grant, asynchronous acquisition (a blocked client costs
// an enqueued waiter in a bounded pool, never a parked connection
// goroutine), and batched wire ops riding gls.LockMany's canonical
// (shard, key) order.
//
// The paper positions GLS as middleware — a locking service applications
// consume rather than a library they embed; this package is that service's
// deployable form. See DESIGN.md §14 for the wire grammar, the
// session/lease/fencing state machine and the release discipline, package
// client for the Go client, and cmd/glsd for the binary.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gls"
)

// Options configures a Server. The zero value listens on no address (use
// Serve with your own listener), creates a default sharded service, and
// uses the documented defaults for every limit.
type Options struct {
	// Service configures the underlying gls.Service the server owns. Debug
	// must be false: debug mode attributes ownership to goroutines, and the
	// server acquires on pool workers and releases on sweeper or reader
	// goroutines by design.
	Service gls.Options

	// DefaultTTL is the lease duration applied when a request carries none
	// (default 10s). MaxTTL caps every requested TTL (default 60s) so a
	// client typo cannot park a key for a week — the lease is the server's
	// only defense against a holder that stops talking.
	DefaultTTL time.Duration
	// MaxTTL caps requested lease durations (default 60s).
	MaxTTL time.Duration

	// DefaultWaitTimeout bounds a wait op that carries no timeout (default
	// 60s). Unbounded waits would let one hot key pin the whole acquisition
	// pool; with every wait bounded and every lease bounded, pool workers
	// always come back.
	DefaultWaitTimeout time.Duration

	// SweepInterval is the expiry sweeper's cadence. It follows the
	// telemetry Sampler's discipline — default 50ms, minimum 10ms (below
	// that the sweep competes with what it bounds). Session death kicks the
	// sweeper immediately, so disconnect release does not wait a tick.
	SweepInterval time.Duration

	// Workers is the acquisition pool size (default 4×GOMAXPROCS, minimum
	// 8): the maximum number of goroutines ever blocked inside the lock
	// service on behalf of waiting clients. Every further waiter is a
	// queued request, not a goroutine.
	Workers int
	// QueueDepth bounds the pending acquisition queue (default 1024).
	// Beyond it, wait requests are refused with ERR overload — open-loop
	// honesty instead of unbounded buffering.
	QueueDepth int

	// MaxLineBytes bounds one request line (default 4096). A longer line is
	// answered with ERR toolong and the connection is closed, since the
	// stream can no longer be framed.
	MaxLineBytes int
	// MaxBatchKeys bounds keys per batched op (default MaxBatchKeys = 64);
	// grant responses carry every (key, token) pair on one line.
	MaxBatchKeys int

	// Logf receives server lifecycle and error lines; nil discards them.
	Logf func(format string, args ...any)
}

// withDefaults resolves the documented defaults.
func (o Options) withDefaults() Options {
	if o.DefaultTTL <= 0 {
		o.DefaultTTL = 10 * time.Second
	}
	if o.MaxTTL <= 0 {
		o.MaxTTL = 60 * time.Second
	}
	if o.DefaultWaitTimeout <= 0 {
		o.DefaultWaitTimeout = 60 * time.Second
	}
	if o.SweepInterval <= 0 {
		o.SweepInterval = 50 * time.Millisecond
	}
	if o.SweepInterval < 10*time.Millisecond {
		o.SweepInterval = 10 * time.Millisecond
	}
	if o.Workers <= 0 {
		o.Workers = 4 * runtime.GOMAXPROCS(0)
		if o.Workers < 8 {
			o.Workers = 8
		}
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = 4096
	}
	if o.MaxBatchKeys <= 0 {
		o.MaxBatchKeys = MaxBatchKeys
	}
	return o
}

// Validate reports configuration errors (New returns them).
func (o Options) Validate() error {
	if o.Service.Debug {
		return errors.New("glsd: Service.Debug is not supported: the server acquires on pool workers and releases on the sweeper, so goroutine-attributed ownership checks would misfire")
	}
	return o.Service.Validate()
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	// Sessions is the number of live sessions (connections).
	Sessions int
	// SessionsTotal counts sessions ever created.
	SessionsTotal uint64
	// Held is the number of currently granted leases.
	Held int64
	// Waiting is the number of queued or in-flight asynchronous
	// acquisitions.
	Waiting int64
	// Leases is the expiry heap's size, stale hints included.
	Leases int
	// Grants counts leases ever granted (every fencing token minted).
	Grants uint64
	// Releases counts explicit unlocks (single and batched).
	Releases uint64
	// Expiries counts sweeper releases — TTL expiries plus session-death
	// releases, which are clamped leases swept through the same path.
	Expiries uint64
	// Timeouts counts waits that hit their timeout.
	Timeouts uint64
	// Cancels counts waits ended by a cancel op or session death.
	Cancels uint64
	// Disconnects counts sessions that died with leases still held.
	Disconnects uint64
	// Overloads counts waits refused because the acquisition queue was
	// full.
	Overloads uint64
}

// Server is one glsd instance. Create with New, serve with Serve or
// ListenAndServe, stop with Close.
type Server struct {
	opts Options
	svc  *gls.Service

	keys     *keyTable
	leases   *leaseQueue
	sessions *sessionSet
	acq      chan *acquireReq

	lnMu sync.Mutex
	lns  []net.Listener

	connWG   sync.WaitGroup
	workerWG sync.WaitGroup
	sweepWG  sync.WaitGroup

	sweepStop chan struct{}
	closed    atomic.Bool

	sessionsTotal atomic.Uint64
	held          atomic.Int64
	waiting       atomic.Int64
	grants        atomic.Uint64
	releases      atomic.Uint64
	expiries      atomic.Uint64
	timeouts      atomic.Uint64
	cancels       atomic.Uint64
	disconnects   atomic.Uint64
	overloads     atomic.Uint64
}

// acquireReq is one queued asynchronous acquisition. ready gates the
// worker until the reader has written the QUEUED response, so a fast grant
// can never overtake its own acknowledgement on the wire.
type acquireReq struct {
	ss    *session
	w     *wait
	ctx   context.Context // session lifetime + cancel op + wait timeout
	ready chan struct{}
}

// New builds a server (its own gls.Service included) and starts the
// acquisition pool and the expiry sweeper. It does not listen; call Serve
// or ListenAndServe.
func New(opts Options) (*Server, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	svc := gls.New(opts.Service)
	s := &Server{
		opts:      opts,
		svc:       svc,
		keys:      newKeyTable(svc),
		leases:    newLeaseQueue(),
		sessions:  newSessionSet(),
		acq:       make(chan *acquireReq, opts.QueueDepth),
		sweepStop: make(chan struct{}),
	}
	for i := 0; i < opts.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	s.sweepWG.Add(1)
	go s.sweeper()
	return s, nil
}

// Service returns the underlying lock service (telemetry access, tests).
func (s *Server) Service() *gls.Service { return s.svc }

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Sessions:      s.sessions.len(),
		SessionsTotal: s.sessionsTotal.Load(),
		Held:          s.held.Load(),
		Waiting:       s.waiting.Load(),
		Leases:        s.leases.size(),
		Grants:        s.grants.Load(),
		Releases:      s.releases.Load(),
		Expiries:      s.expiries.Load(),
		Timeouts:      s.timeouts.Load(),
		Cancels:       s.cancels.Load(),
		Disconnects:   s.disconnects.Load(),
		Overloads:     s.overloads.Load(),
	}
}

// logf writes one log line through Options.Logf, if set.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// ListenAndServe listens on addr and serves until Close, blocking like
// http.Server.ListenAndServe. Use Listen + Serve to learn the bound
// address first.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := s.Listen(addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Listen opens a TCP listener on addr and registers it for Close.
func (s *Server) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.lnMu.Lock()
	s.lns = append(s.lns, ln)
	s.lnMu.Unlock()
	return ln, nil
}

// Serve accepts connections on ln until the listener is closed (Close
// closes every listener opened through Listen). Each connection runs one
// reader goroutine; all blocking waits go through the shared pool.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.handleConn(conn)
		}()
	}
}

// Close stops the server: listeners close, live sessions are torn down
// (their leases clamp to now and sweep), the acquisition pool drains, and
// the sweeper stops once every held lock is back. Safe to call more than
// once; the underlying service is closed last.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.lnMu.Lock()
	for _, ln := range s.lns {
		_ = ln.Close()
	}
	s.lnMu.Unlock()
	// Closing each session's connection unblocks its reader, whose exit
	// path runs the teardown (clamp leases, cancel waits).
	s.sessions.each(func(ss *session) { _ = ss.conn.Close() })
	s.connWG.Wait()
	// No readers ⇒ no new enqueues; drain the pool. In-flight LockCtx
	// waits were cancelled by the teardowns; a blocking lockmany finishes
	// once the sweeper (still running) reaps the leases it is stuck behind.
	close(s.acq)
	s.workerWG.Wait()
	close(s.sweepStop)
	s.sweepWG.Wait()
	s.svc.Close()
}

// handleConn runs one connection: a session, a line scanner, and the
// dispatch loop. The reader goroutine only ever executes non-blocking
// operations; anything that could wait is handed to the pool.
func (s *Server) handleConn(conn net.Conn) {
	ss := s.sessions.add(s, conn)
	s.sessionsTotal.Add(1)
	defer s.teardown(ss)

	sc := bufio.NewScanner(conn)
	// The scanner's token cap is max(cap(buf), limit), so the initial
	// buffer must not exceed the configured line limit.
	initial := 512
	if initial > s.opts.MaxLineBytes {
		initial = s.opts.MaxLineBytes
	}
	sc.Buffer(make([]byte, 0, initial), s.opts.MaxLineBytes)
	for sc.Scan() {
		line := strings.TrimSuffix(sc.Text(), "\r")
		if line == "" {
			continue
		}
		cmd, perr := ParseCommand(line, s.opts.MaxBatchKeys)
		if perr != nil {
			ss.writeErr(perr)
			continue
		}
		if !s.dispatch(ss, cmd) {
			return
		}
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		ss.writeErr(protoErrf(ErrCodeTooLong, "request line exceeds %d bytes", s.opts.MaxLineBytes))
	}
}

// teardown is session death: every queued wait aborts, every held lease is
// clamped to "now" and handed to the sweeper — disconnect release IS lease
// expiry, one code path — and the session leaves the registry.
func (s *Server) teardown(ss *session) {
	ss.cancel()
	now := time.Now()
	ss.mu.Lock()
	ss.dead = true
	hadHeld := len(ss.held) > 0
	for _, g := range ss.held {
		g.expiry = now
		s.leases.push(leaseRecord{at: now, sess: ss, key: g.key, token: g.token})
	}
	ss.mu.Unlock()
	if hadHeld {
		s.disconnects.Add(1)
	}
	s.leases.wake()
	s.sessions.remove(ss.id)
	_ = ss.conn.Close()
}

// clampTTL resolves a requested TTL against the defaults and the cap.
func (s *Server) clampTTL(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		ttl = s.opts.DefaultTTL
	}
	if ttl > s.opts.MaxTTL {
		ttl = s.opts.MaxTTL
	}
	return ttl
}

// releaseGrant returns g's lock to the service and retires the grant's key
// reference. The caller must have removed g from the session's held map
// (the single-remover rule); the counter it bumps is the caller's.
func (s *Server) releaseGrant(g *grant) {
	s.svc.Unlock(g.key)
	s.keys.unref(g.key)
	s.held.Add(-1)
}

// dispatch executes one parsed command on the reader goroutine. It returns
// false when the connection should close (quit).
func (s *Server) dispatch(ss *session, cmd Command) bool {
	switch cmd.Op {
	case OpSession:
		ss.writeLine("SESSION", ss.idString())
	case OpPing:
		ss.writeLine("PONG")
	case OpQuit:
		ss.writeLine("BYE")
		return false
	case OpStats:
		ss.writeLine(s.statsLine())
	case OpToken:
		ss.writeLine("TOKEN", fmtKey(cmd.Key), strconv.FormatUint(s.keys.current(cmd.Key), 10))
	case OpTryLock:
		s.handleTryLock(ss, cmd)
	case OpUnlock:
		s.handleUnlock(ss, cmd)
	case OpRenew:
		s.handleRenew(ss, cmd)
	case OpWait, OpLockMany:
		s.handleAsync(ss, cmd)
	case OpCancel:
		s.handleCancel(ss, cmd)
	case OpTryLockMany:
		s.handleTryLockMany(ss, cmd)
	case OpUnlockMany:
		s.handleUnlockMany(ss, cmd)
	default:
		ss.writeErr(protoErrf(ErrCodeCommand, "unhandled op %v", cmd.Op))
	}
	return true
}

// statsLine renders the stats response: one line of k=v fields.
func (s *Server) statsLine() string {
	st := s.Stats()
	return fmt.Sprintf(
		"STATS sessions=%d held=%d waiting=%d leases=%d grants=%d releases=%d expiries=%d timeouts=%d cancels=%d disconnects=%d overloads=%d",
		st.Sessions, st.Held, st.Waiting, st.Leases, st.Grants, st.Releases,
		st.Expiries, st.Timeouts, st.Cancels, st.Disconnects, st.Overloads)
}

// fmtKey renders a key for the wire (hex, like the telemetry reports).
func fmtKey(k uint64) string { return "0x" + strconv.FormatUint(k, 16) }

func fmtMillis(d time.Duration) string {
	return strconv.FormatInt(d.Milliseconds(), 10)
}

// holdsAny reports (under ss.mu) a key of keys this session already holds.
// Re-acquiring a held key would self-deadlock a pool worker until the
// lease expires, so it is refused up front.
func (ss *session) holdsAny(keys []uint64) (uint64, bool) {
	for _, k := range keys {
		if _, ok := ss.held[k]; ok {
			return k, true
		}
	}
	return 0, false
}

// handleTryLock is the synchronous single-key acquisition: safe on the
// reader goroutine because TryLock never waits.
func (s *Server) handleTryLock(ss *session, cmd Command) {
	ss.mu.Lock()
	_, held := ss.held[cmd.Key]
	ss.mu.Unlock()
	if held {
		ss.writeErr(protoErrf(ErrCodeHeld, "key %s already held by this session", fmtKey(cmd.Key)))
		return
	}
	ttl := s.clampTTL(cmd.TTL)
	s.keys.ref(cmd.Key)
	if !s.svc.TryLock(cmd.Key) {
		s.keys.unref(cmd.Key)
		ss.writeLine("BUSY", fmtKey(cmd.Key))
		return
	}
	g, alive := ss.registerGrant(cmd.Key, ttl)
	if !alive {
		// The session died under us (Close racing the reader); give the
		// lock straight back.
		s.svc.Unlock(cmd.Key)
		s.keys.unref(cmd.Key)
		return
	}
	s.grants.Add(1)
	s.held.Add(1)
	ss.writeLine("GRANTED", fmtKey(cmd.Key), strconv.FormatUint(g.token, 10), fmtMillis(ttl))
}

// handleUnlock releases a held lease.
func (s *Server) handleUnlock(ss *session, cmd Command) {
	g, ok := ss.takeGrant(cmd.Key)
	if !ok {
		ss.writeErr(protoErrf(ErrCodeNotHeld, "key %s is not held by this session", fmtKey(cmd.Key)))
		return
	}
	s.releaseGrant(g)
	s.releases.Add(1)
	ss.writeLine("RELEASED", fmtKey(cmd.Key))
}

// handleRenew extends a held lease. The expiry time is authoritative: a
// renew that arrives past it fails with ERR expired and releases the lease
// right there, without waiting for the sweeper — so "my lease lapsed" is
// reported by the earliest of the two observers, deterministically.
func (s *Server) handleRenew(ss *session, cmd Command) {
	now := time.Now()
	ttl := s.clampTTL(cmd.TTL)
	ss.mu.Lock()
	g, ok := ss.held[cmd.Key]
	if !ok {
		ss.mu.Unlock()
		ss.writeErr(protoErrf(ErrCodeNotHeld, "key %s is not held by this session", fmtKey(cmd.Key)))
		return
	}
	if !now.Before(g.expiry) {
		delete(ss.held, cmd.Key)
		ss.mu.Unlock()
		s.releaseGrant(g)
		s.expiries.Add(1)
		ss.writeErr(protoErrf(ErrCodeExpired, "lease on %s expired %v ago", fmtKey(cmd.Key), now.Sub(g.expiry).Round(time.Millisecond)))
		return
	}
	g.ttl = ttl
	g.expiry = now.Add(ttl)
	s.leases.push(leaseRecord{at: g.expiry, sess: ss, key: cmd.Key, token: g.token})
	tok := g.token
	ss.mu.Unlock()
	ss.writeLine("RENEWED", fmtKey(cmd.Key), strconv.FormatUint(tok, 10), fmtMillis(ttl))
}

// handleCancel aborts an outstanding wait. Always acknowledged: the race
// between a cancel and a grant is real, and its outcome arrives as the
// wait's own terminal line (GRANT if the grant won, CANCELLED otherwise).
func (s *Server) handleCancel(ss *session, cmd Command) {
	ss.mu.Lock()
	w := ss.waits[cmd.ID]
	ss.mu.Unlock()
	if w != nil {
		w.cancel()
	}
	ss.writeLine("OK", "cancel", strconv.FormatUint(cmd.ID, 10))
}

// handleAsync queues a wait or lockmany: register the wait, take the key
// refs, acknowledge with QUEUED, then hand the request to the pool. The
// worker is gated on the acknowledgement so GRANT can never precede QUEUED
// on the wire.
func (s *Server) handleAsync(ss *session, cmd Command) {
	keys := cmd.Keys
	if cmd.Op == OpWait {
		keys = []uint64{cmd.Key}
	} else {
		keys = dedupeKeys(keys)
	}
	ttl := s.clampTTL(cmd.TTL)
	w := &wait{id: cmd.ID, keys: keys, ttl: ttl, many: cmd.Op == OpLockMany}

	ss.mu.Lock()
	if ss.dead {
		ss.mu.Unlock()
		return
	}
	if _, dup := ss.waits[cmd.ID]; dup {
		ss.mu.Unlock()
		ss.writeErr(protoErrf(ErrCodeDupID, "wait id %d already outstanding", cmd.ID))
		return
	}
	if k, held := ss.holdsAny(keys); held {
		ss.mu.Unlock()
		ss.writeErr(protoErrf(ErrCodeHeld, "key %s already held by this session", fmtKey(k)))
		return
	}
	ctx := ss.ctx
	var cancelTimeout context.CancelFunc
	if !w.many {
		timeout := cmd.Timeout
		if timeout <= 0 {
			timeout = s.opts.DefaultWaitTimeout
		}
		ctx, cancelTimeout = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancelTimeout = context.WithCancel(ctx)
	}
	w.cancel = cancelTimeout
	ss.waits[cmd.ID] = w
	ss.mu.Unlock()

	for _, k := range keys {
		s.keys.ref(k)
	}
	s.waiting.Add(1)
	req := &acquireReq{ss: ss, w: w, ctx: ctx, ready: make(chan struct{})}
	select {
	case s.acq <- req:
		ss.writeLine("QUEUED", strconv.FormatUint(cmd.ID, 10))
		close(req.ready)
	default:
		s.waiting.Add(-1)
		ss.mu.Lock()
		delete(ss.waits, cmd.ID)
		ss.mu.Unlock()
		cancelTimeout()
		for _, k := range keys {
			s.keys.unref(k)
		}
		s.overloads.Add(1)
		ss.writeErr(protoErrf(ErrCodeOverload, "acquisition queue full (%d pending)", s.opts.QueueDepth))
	}
}

// dedupeKeys coalesces duplicate keys, preserving first-occurrence order
// (the service would coalesce inside LockMany too; the server needs the
// deduplicated set for its own grant bookkeeping).
func dedupeKeys(keys []uint64) []uint64 {
	seen := make(map[uint64]struct{}, len(keys))
	out := keys[:0:len(keys)]
	for _, k := range keys {
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, k)
	}
	return out
}

// handleTryLockMany is the synchronous all-or-nothing batch: it maps to
// Service.TryLockMany, which acquires in canonical (shard, key) order and
// backs out completely on the first busy key.
func (s *Server) handleTryLockMany(ss *session, cmd Command) {
	keys := dedupeKeys(cmd.Keys)
	ss.mu.Lock()
	k, held := ss.holdsAny(keys)
	ss.mu.Unlock()
	if held {
		ss.writeErr(protoErrf(ErrCodeHeld, "key %s already held by this session", fmtKey(k)))
		return
	}
	ttl := s.clampTTL(cmd.TTL)
	for _, k := range keys {
		s.keys.ref(k)
	}
	if !s.svc.TryLockMany(keys...) {
		for _, k := range keys {
			s.keys.unref(k)
		}
		ss.writeLine("BUSY", "many")
		return
	}
	granted := s.registerMany(ss, keys, ttl)
	if granted == nil {
		return // session died; registerMany rolled everything back
	}
	ss.writeLine(grantManyLine("GRANTEDMANY", 0, false, ttl, keys, granted))
}

// registerMany records a grant per key of an acquired batch. On a dead
// session it releases every lock of the batch — the ones it had registered
// are already clamped by teardown and swept, the rest are returned here —
// and reports nil.
func (s *Server) registerMany(ss *session, keys []uint64, ttl time.Duration) map[uint64]uint64 {
	tokens := make(map[uint64]uint64, len(keys))
	for i, k := range keys {
		g, alive := ss.registerGrant(k, ttl)
		if !alive {
			// Keys [0, i) were registered before death — impossible, since
			// dead is set once under ss.mu and registerGrant checks it; a
			// death between iterations leaves the earlier registrations to
			// the teardown clamp. Release the rest ourselves.
			for _, rest := range keys[i:] {
				s.svc.Unlock(rest)
				s.keys.unref(rest)
			}
			return nil
		}
		s.grants.Add(1)
		s.held.Add(1)
		tokens[k] = g.token
	}
	return tokens
}

// grantManyLine renders a batched grant: VERB [id] ttl key token key token...
func grantManyLine(verb string, id uint64, withID bool, ttl time.Duration, keys []uint64, tokens map[uint64]uint64) string {
	var b strings.Builder
	b.WriteString(verb)
	if withID {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(id, 10))
	}
	b.WriteByte(' ')
	b.WriteString(fmtMillis(ttl))
	for _, k := range keys {
		b.WriteByte(' ')
		b.WriteString(fmtKey(k))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(tokens[k], 10))
	}
	return b.String()
}

// handleUnlockMany releases a batch of held leases. Keys not held by this
// session are skipped and reported in the count — a batch release after a
// partial expiry should release what remains, not fail entirely.
func (s *Server) handleUnlockMany(ss *session, cmd Command) {
	keys := dedupeKeys(cmd.Keys)
	released := 0
	for _, k := range keys {
		if g, ok := ss.takeGrant(k); ok {
			s.releaseGrant(g)
			s.releases.Add(1)
			released++
		}
	}
	ss.writeLine("RELEASEDMANY", strconv.Itoa(released))
}

// worker is one acquisition-pool goroutine: it executes queued waits
// against the lock service, so a blocked client costs an enqueued waiter
// here — bounded by Options.Workers — and never a parked connection
// goroutine.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for req := range s.acq {
		<-req.ready
		if req.w.many {
			s.runLockMany(req)
		} else {
			s.runWait(req)
		}
		s.waiting.Add(-1)
	}
}

// finishWait retires the wait record and its timeout context.
func (s *Server) finishWait(ss *session, w *wait) {
	ss.mu.Lock()
	delete(ss.waits, w.id)
	ss.mu.Unlock()
	w.cancel()
}

// runWait executes one single-key asynchronous acquisition. The enqueue
// rides Service.LockCtx, so an abandoned wait departs the lock queue
// cleanly (locks.Cancel protocol) instead of occupying a slot until its
// turn.
func (s *Server) runWait(req *acquireReq) {
	ss, w := req.ss, req.w
	key := w.keys[0]
	idStr := strconv.FormatUint(w.id, 10)
	err := s.svc.LockCtx(req.ctx, key)
	s.finishWait(ss, w)
	if err != nil {
		s.keys.unref(key)
		if errors.Is(err, context.DeadlineExceeded) {
			s.timeouts.Add(1)
			ss.writeLine("TIMEOUT", idStr)
		} else {
			s.cancels.Add(1)
			ss.writeLine("CANCELLED", idStr)
		}
		return
	}
	g, alive := ss.registerGrant(key, w.ttl)
	if !alive {
		// Granted after the session died (grant beat the teardown's
		// cancel): give it straight back.
		s.svc.Unlock(key)
		s.keys.unref(key)
		s.cancels.Add(1)
		return
	}
	s.grants.Add(1)
	s.held.Add(1)
	ss.writeLine("GRANT", idStr, fmtKey(key), strconv.FormatUint(g.token, 10), fmtMillis(w.ttl))
}

// runLockMany executes one batched asynchronous acquisition via the
// blocking Service.LockMany — deadlock-free against any other batch by the
// canonical (shard, key) order, and bounded in time because every blocking
// hold ahead of it carries a lease. Session death cannot abort the batch
// mid-acquisition (LockMany has no cancel path); it completes and is then
// rolled straight back.
func (s *Server) runLockMany(req *acquireReq) {
	ss, w := req.ss, req.w
	idStr := strconv.FormatUint(w.id, 10)
	s.svc.LockMany(w.keys...)
	// Read the context before finishWait retires it (finishWait cancels).
	aborted := req.ctx.Err() != nil
	s.finishWait(ss, w)
	if aborted {
		// Cancelled (or the session died) while the batch was being
		// assembled; the locks were still taken — release them.
		for _, k := range w.keys {
			s.svc.Unlock(k)
			s.keys.unref(k)
		}
		s.cancels.Add(1)
		ss.writeLine("CANCELLED", idStr)
		return
	}
	granted := s.registerMany(ss, w.keys, w.ttl)
	if granted == nil {
		s.cancels.Add(1)
		return
	}
	ss.writeLine(grantManyLine("GRANTMANY", w.id, true, w.ttl, w.keys, granted))
}

// sweeper is the lease-expiry loop: a ticker at Options.SweepInterval plus
// immediate kicks from session teardown. Each pass drains the due heap
// records and revalidates every one against the owning session before
// releasing — the heap holds hints, the session holds the truth.
func (s *Server) sweeper() {
	defer s.sweepWG.Done()
	t := time.NewTicker(s.opts.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			// Final pass: Close clamped every remaining lease before
			// stopping the pool, so this drain returns the stragglers.
			s.sweepDue(time.Now())
			return
		case <-t.C:
		case <-s.leases.kick:
		}
		s.sweepDue(time.Now())
	}
}

// sweepDue releases every lease that is really expired as of now.
func (s *Server) sweepDue(now time.Time) {
	for _, rec := range s.leases.due(now) {
		s.expire(rec, now)
	}
}

// expire revalidates one due lease record and, if the grant it names is
// still registered with the same token and really past its expiry,
// releases it: the single-remover delete under the session mutex, then the
// service unlock, the key unref (which may Free an idle key), and the
// EXPIRED notice to a still-living client.
func (s *Server) expire(rec leaseRecord, now time.Time) {
	ss := rec.sess
	ss.mu.Lock()
	g := ss.held[rec.key]
	if g == nil || g.token != rec.token || g.expiry.After(now) {
		ss.mu.Unlock()
		return // renewed, already released, or a stale hint
	}
	delete(ss.held, rec.key)
	wasDead := ss.dead
	ss.mu.Unlock()
	s.releaseGrant(g)
	s.expiries.Add(1)
	if !wasDead {
		ss.writeLine("EXPIRED", fmtKey(rec.key), strconv.FormatUint(rec.token, 10))
	}
}
