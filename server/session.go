package server

import (
	"bufio"
	"context"
	"net"
	"strconv"
	"sync"
	"time"
)

// Sessions. A session is one client connection's identity on the server:
// the unit of lock ownership (a lock is held *by a session*, released only
// through it), of liveness (connection death releases everything the
// session holds, through the lease machinery), and of the client-side
// token cache's scope.
//
// Single-remover invariant: a session's held map owns the underlying
// service lock for each granted key. Exactly one path removes a grant from
// the map — the unlock op, the expiry sweeper, or session teardown — and
// only the remover calls Service.Unlock, always after the removal. All
// removals run under session.mu, so a racing unlock and expiry cannot both
// release, and the mutex hand-over doubles as the happens-before edge that
// makes a cross-goroutine Unlock safe (the pool worker that acquired
// published the grant under the same mutex; see DESIGN.md §14).

// grant is one held lease: the session's record of a granted key, and its
// own entry in the server's lease heap.
type grant struct {
	sess   *session
	key    uint64
	token  uint64
	expiry time.Time // guarded by sess.mu

	// at (the heap key) and idx (the heap position, -1 while not queued)
	// are guarded by the lease queue's mutex.
	at  time.Time
	idx int
}

// wait is one outstanding asynchronous acquisition (wait or lockmany).
type wait struct {
	id     uint64
	keys   []uint64 // single-element for wait; wire order for lockmany
	ttl    time.Duration
	many   bool
	cancel context.CancelFunc // aborts the pool worker's LockCtx
}

// session is one connection's server-side state.
type session struct {
	id   uint64
	srv  *Server
	conn net.Conn

	// wmu serializes response lines (see reply).
	wmu sync.Mutex
	bw  *bufio.Writer

	// mu guards the ownership state below.
	mu    sync.Mutex
	held  map[uint64]*grant
	waits map[uint64]*wait
	dead  bool

	// ctx is the session's lifetime; teardown cancels it, aborting every
	// queued acquisition at once.
	ctx    context.Context
	cancel context.CancelFunc
}

// reply begins a response line with verb, built in place in the free
// space of the session's writer, and takes wmu; send finishes the line.
// The append helpers below fill in the fields, so a hot response costs no
// allocation. Response lines are serialized by wmu: synchronous responses
// from the reader goroutine interleave with asynchronous grants from pool
// workers and expiry notices from the sweeper, one whole line at a time.
func (ss *session) reply(verb string) []byte {
	ss.wmu.Lock()
	return append(ss.bw.AvailableBuffer(), verb...)
}

// send terminates and flushes a line begun by reply, releasing wmu. Errors
// are swallowed: a session whose connection broke is torn down by its
// reader goroutine, and every other writer just stops mattering.
func (ss *session) send(b []byte) {
	_, _ = ss.bw.Write(append(b, "\r\n"...))
	_ = ss.bw.Flush()
	ss.wmu.Unlock()
}

// appendKey appends a space and a key in the wire's hex form.
func appendKey(b []byte, k uint64) []byte {
	return strconv.AppendUint(append(b, " 0x"...), k, 16)
}

// appendUint appends a space and v in decimal.
func appendUint(b []byte, v uint64) []byte {
	return strconv.AppendUint(append(b, ' '), v, 10)
}

// appendMillis appends a space and d in whole milliseconds.
func appendMillis(b []byte, d time.Duration) []byte {
	return strconv.AppendInt(append(b, ' '), d.Milliseconds(), 10)
}

// writeLine sends one response line: verb and the remaining parts, joined
// by spaces.
func (ss *session) writeLine(verb string, parts ...string) {
	b := ss.reply(verb)
	for _, p := range parts {
		b = append(append(b, ' '), p...)
	}
	ss.send(b)
}

// writeErr sends an ERR line for a rejected request.
func (ss *session) writeErr(perr *ProtoError) {
	ss.writeLine("ERR", perr.Code, perr.Detail)
}

// registerGrant mints key's fencing token, records the grant and schedules
// its lease, while the caller physically holds key's lock. It returns
// false — and the caller must release the lock and drop its ref — when the
// session died while the acquisition was in flight. The key's ref is
// handed from the acquisition attempt to the grant, so no count changes
// here.
func (ss *session) registerGrant(key uint64, ttl time.Duration) (*grant, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.dead {
		return nil, false
	}
	g := &grant{
		sess:   ss,
		key:    key,
		token:  ss.srv.keys.mint(key),
		expiry: time.Now().Add(ttl),
		idx:    -1,
	}
	ss.held[key] = g
	ss.srv.leases.schedule(g, g.expiry)
	return g, true
}

// takeGrant removes and returns key's grant if this session holds it —
// the single-remover step shared by unlock and unlockmany. It takes the
// grant out of the held map and the lease heap together; the caller owns
// the release (Service.Unlock, then unref) on a true return.
func (ss *session) takeGrant(key uint64) (*grant, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	g, ok := ss.held[key]
	if ok {
		ss.dropLocked(g)
	}
	return g, ok
}

// dropLocked removes g from the held map and the lease heap. ss.mu must be
// held: it is the single-remover step every release path shares.
func (ss *session) dropLocked(g *grant) {
	delete(ss.held, g.key)
	ss.srv.leases.remove(g)
}

// sessionSet is the server's session registry.
type sessionSet struct {
	mu   sync.Mutex
	m    map[uint64]*session
	next uint64
}

func newSessionSet() *sessionSet {
	return &sessionSet{m: make(map[uint64]*session)}
}

// add registers a new session for conn and returns it.
func (set *sessionSet) add(srv *Server, conn net.Conn) *session {
	ctx, cancel := context.WithCancel(context.Background())
	set.mu.Lock()
	set.next++
	ss := &session{
		id:     set.next,
		srv:    srv,
		conn:   conn,
		bw:     bufio.NewWriter(conn),
		held:   make(map[uint64]*grant),
		waits:  make(map[uint64]*wait),
		ctx:    ctx,
		cancel: cancel,
	}
	set.m[ss.id] = ss
	set.mu.Unlock()
	return ss
}

// remove drops a session from the registry.
func (set *sessionSet) remove(id uint64) {
	set.mu.Lock()
	delete(set.m, id)
	set.mu.Unlock()
}

// len reports live sessions.
func (set *sessionSet) len() int {
	set.mu.Lock()
	defer set.mu.Unlock()
	return len(set.m)
}

// each calls fn for every live session (teardown during Close).
func (set *sessionSet) each(fn func(*session)) {
	set.mu.Lock()
	sessions := make([]*session, 0, len(set.m))
	for _, ss := range set.m {
		sessions = append(sessions, ss)
	}
	set.mu.Unlock()
	for _, ss := range sessions {
		fn(ss)
	}
}
