// Package client is the Go client for glsd, the GLS lock server (package
// server): a connection speaks the line protocol, demultiplexes
// asynchronous grant/expiry notices from synchronous replies, and keeps
// the session-scoped key→fencing-token map that callers pass to
// token-checking consumers (see FencedStore). A Pool recycles connections
// for callers that want lock-service calls without connection management.
package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel errors mapping the server's refusals.
var (
	// ErrBusy reports a trylock that lost: the key is held elsewhere.
	ErrBusy = errors.New("glsd client: key busy")
	// ErrTimeout reports a wait that hit its timeout.
	ErrTimeout = errors.New("glsd client: wait timed out")
	// ErrCancelled reports a wait ended by cancellation.
	ErrCancelled = errors.New("glsd client: wait cancelled")
	// ErrNotHeld reports an unlock or renew of a key this session does not
	// hold.
	ErrNotHeld = errors.New("glsd client: key not held")
	// ErrExpired reports a renew that arrived after the lease lapsed; the
	// lock is gone and must be reacquired (with a fresh, larger token).
	ErrExpired = errors.New("glsd client: lease expired")
	// ErrClosed reports use of a closed or broken connection.
	ErrClosed = errors.New("glsd client: connection closed")
)

// ServerError is a server refusal that has no sentinel: the raw ERR code
// and detail.
type ServerError struct {
	Code   string
	Detail string
}

// Error renders the code and detail as the server sent them.
func (e *ServerError) Error() string {
	return fmt.Sprintf("glsd client: server error %s: %s", e.Code, e.Detail)
}

// errForCode maps an ERR line to the friendliest error available.
func errForCode(code, detail string) error {
	switch code {
	case "notheld":
		return ErrNotHeld
	case "expired":
		return ErrExpired
	default:
		return &ServerError{Code: code, Detail: detail}
	}
}

// Conn is one session with a glsd server. It is safe for concurrent use:
// synchronous requests are serialized, and each outstanding asynchronous
// acquisition has its own delivery channel keyed by wait id.
type Conn struct {
	nc net.Conn
	bw *bufio.Writer

	// reqMu serializes request/response pairs: the protocol answers
	// synchronous requests in order, so one round trip at a time keeps the
	// pairing trivial.
	reqMu sync.Mutex
	// wmu guards bw (cancel ops write while another round trip may be
	// draining its reply).
	wmu sync.Mutex

	// pending is set by a round trip before it writes its request and
	// cleared by the read loop as it hands the reply to syncCh.
	pending atomic.Bool
	syncCh  chan reply

	mu      sync.Mutex
	waits   map[uint64]chan reply
	tokens  map[uint64]uint64
	expired func(key, token uint64)

	nextWait atomic.Uint64
	session  uint64

	done    chan struct{}
	readErr error
	closed  atomic.Bool
}

// Dial connects to a glsd server and opens a session.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := newConn(nc)
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	return c, nil
}

// newConn starts the read loop on nc and opens a session over it.
func newConn(nc net.Conn) (*Conn, error) {
	c := &Conn{
		nc:     nc,
		bw:     bufio.NewWriter(nc),
		syncCh: make(chan reply, 1),
		waits:  make(map[uint64]chan reply),
		tokens: make(map[uint64]uint64),
		done:   make(chan struct{}),
	}
	go c.readLoop(bufio.NewReader(nc))
	r, err := c.roundTrip("session", nil)
	if err != nil {
		return nil, err
	}
	if r.verb != "SESSION" || r.n != 1 {
		return nil, fmt.Errorf("glsd client: bad session reply %q", r)
	}
	c.session = r.num[0]
	return c, nil
}

// SessionID reports the server-assigned session id.
func (c *Conn) SessionID() uint64 { return c.session }

// OnExpired installs a callback for server-initiated lease expiries
// (EXPIRED notices). Called from the read loop; keep it quick.
func (c *Conn) OnExpired(fn func(key, token uint64)) {
	c.mu.Lock()
	c.expired = fn
	c.mu.Unlock()
}

// Close ends the session. The server releases every lease the session
// still holds (through the lease sweeper, tokens advancing past them).
func (c *Conn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	// Best-effort polite quit; the server tears the session down either way.
	_ = c.send("quit", nil)
	return c.nc.Close()
}

// reply is one parsed server line. A fixed-shape reply — one of
// fixedVerbs followed by at most len(num) numeric fields (keys, tokens,
// ids, milliseconds) — is parsed into num without allocating. Every other
// line (ERR, STATS, batch grants, a non-numeric field) keeps its fields
// after the verb as strings.
type reply struct {
	verb   string
	num    [4]uint64
	n      int      // fields parsed into num
	fields []string // the other lines only
}

// fixedVerbs are the replies parsed into reply.num.
var fixedVerbs = [...]string{
	"GRANTED", "RELEASED", "BUSY", "GRANT", "QUEUED", "TIMEOUT", "CANCELLED",
	"EXPIRED", "RENEWED", "TOKEN", "RELEASEDMANY", "SESSION", "PONG", "BYE",
}

// parseReply parses one line, terminator included.
func parseReply(line []byte) reply {
	line = bytes.TrimRight(line, "\r\n")
	if r, ok := parseFixed(line); ok {
		return r
	}
	f := strings.Fields(string(line))
	if len(f) == 0 {
		return reply{}
	}
	return reply{verb: f[0], fields: f[1:]}
}

// parseFixed parses a fixed-shape reply: a known verb and single-space
// separated numeric fields, decimal or 0x hex.
func parseFixed(line []byte) (reply, bool) {
	verb, rest, more := bytes.Cut(line, []byte{' '})
	var r reply
	for _, v := range fixedVerbs {
		if string(verb) == v {
			r.verb = v
			break
		}
	}
	if r.verb == "" {
		return reply{}, false
	}
	for more {
		if r.n == len(r.num) {
			return reply{}, false
		}
		var f []byte
		f, rest, more = bytes.Cut(rest, []byte{' '})
		v, err := strconv.ParseUint(string(f), 0, 64)
		if err != nil {
			return reply{}, false
		}
		r.num[r.n] = v
		r.n++
	}
	return r, true
}

// String renders the reply (numbers in decimal) for error messages.
func (r reply) String() string {
	parts := append([]string{r.verb}, r.fields...)
	for _, v := range r.num[:r.n] {
		parts = append(parts, strconv.FormatUint(v, 10))
	}
	return strings.Join(parts, " ")
}

// waitID returns an asynchronous line's wait id, its first field.
func (r reply) waitID() (uint64, bool) {
	if r.fields == nil {
		return r.num[0], r.n > 0
	}
	if len(r.fields) == 0 {
		return 0, false
	}
	id, err := strconv.ParseUint(r.fields[0], 10, 64)
	return id, err == nil
}

// readLoop demultiplexes server lines: wait-id-bearing verbs and expiry
// notices are asynchronous and route by id; everything else answers the
// pending synchronous request. A synchronous line with no request pending
// means the stream is out of step, and the connection is abandoned at
// once.
func (c *Conn) readLoop(br *bufio.Reader) {
	defer func() {
		c.mu.Lock()
		for id, ch := range c.waits {
			close(ch)
			delete(c.waits, id)
		}
		c.mu.Unlock()
		close(c.done)
	}()
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// Longer than the read buffer (a long ERR detail): copy it out
			// before reading the rest.
			var tail []byte
			long := append([]byte(nil), line...)
			tail, err = br.ReadBytes('\n')
			line = append(long, tail...)
		}
		if err != nil {
			c.readErr = err
			return
		}
		r := parseReply(line)
		switch r.verb {
		case "": // blank line
		case "GRANT", "GRANTMANY", "TIMEOUT", "CANCELLED":
			id, ok := r.waitID()
			if !ok {
				continue
			}
			c.mu.Lock()
			ch := c.waits[id]
			delete(c.waits, id)
			c.mu.Unlock()
			if ch != nil {
				ch <- r
			}
		case "EXPIRED":
			c.mu.Lock()
			fn := c.expired
			c.mu.Unlock()
			if fn != nil && r.n == 2 {
				fn(r.num[0], r.num[1])
			}
		default:
			if !c.pending.CompareAndSwap(true, false) {
				c.readErr = fmt.Errorf("glsd client: unsolicited reply %q", r)
				return
			}
			c.syncCh <- r
		}
	}
}

// send writes one request line — verb, then whatever args appends —
// built in place in the free space of the connection's writer.
func (c *Conn) send(verb string, args func([]byte) []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	b := append(c.bw.AvailableBuffer(), verb...)
	if args != nil {
		b = args(b)
	}
	if _, err := c.bw.Write(append(b, "\r\n"...)); err != nil {
		return err
	}
	return c.bw.Flush()
}

// roundTrip sends one synchronous request and returns its reply.
func (c *Conn) roundTrip(verb string, args func([]byte) []byte) (reply, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	select {
	case <-c.done:
		return reply{}, c.closedErr()
	default:
	}
	c.pending.Store(true)
	if err := c.send(verb, args); err != nil {
		return reply{}, errors.Join(ErrClosed, err)
	}
	select {
	case r := <-c.syncCh:
		if r.verb == "ERR" {
			code, detail := "", ""
			if len(r.fields) > 0 {
				code, detail = r.fields[0], strings.Join(r.fields[1:], " ")
			}
			return reply{}, errForCode(code, detail)
		}
		return r, nil
	case <-c.done:
		return reply{}, c.closedErr()
	}
}

// closedErr is the error of a call on a connection whose read loop ended.
func (c *Conn) closedErr() error {
	if c.readErr != nil {
		return errors.Join(ErrClosed, c.readErr)
	}
	return ErrClosed
}

// noteToken records a grant in the session's key→token map.
func (c *Conn) noteToken(key, token uint64) {
	c.mu.Lock()
	c.tokens[key] = token
	c.mu.Unlock()
}

// LastToken reports the last fencing token this session was granted for
// key (zero if never granted). This is the value to hand to a fencing
// consumer alongside the guarded write.
func (c *Conn) LastToken(key uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tokens[key]
}

// appendKey appends a space and a key in hex, like the server renders it.
func appendKey(b []byte, k uint64) []byte {
	return strconv.AppendUint(append(b, " 0x"...), k, 16)
}

// appendKeys appends each key with appendKey.
func appendKeys(b []byte, keys []uint64) []byte {
	for _, k := range keys {
		b = appendKey(b, k)
	}
	return b
}

// appendUint appends a space and v in decimal.
func appendUint(b []byte, v uint64) []byte {
	return strconv.AppendUint(append(b, ' '), v, 10)
}

// appendMillis appends a space and d in whole milliseconds.
func appendMillis(b []byte, d time.Duration) []byte {
	return strconv.AppendInt(append(b, ' '), d.Milliseconds(), 10)
}

// TryLock attempts key without waiting. On success it returns the grant's
// fencing token; a held key returns ErrBusy. ttl <= 0 uses the server
// default.
func (c *Conn) TryLock(key uint64, ttl time.Duration) (uint64, error) {
	r, err := c.roundTrip("trylock", func(b []byte) []byte {
		b = appendKey(b, key)
		if ttl > 0 {
			b = appendMillis(b, ttl)
		}
		return b
	})
	if err != nil {
		return 0, err
	}
	switch r.verb {
	case "BUSY":
		return 0, ErrBusy
	case "GRANTED":
		// GRANTED <key> <token> <ttl>
		if r.n != 3 {
			return 0, fmt.Errorf("glsd client: bad GRANTED reply %q", r)
		}
		c.noteToken(key, r.num[1])
		return r.num[1], nil
	}
	return 0, fmt.Errorf("glsd client: unexpected reply %q", r)
}

// Lock acquires key, waiting in the server's queue. It returns the grant's
// fencing token. ttl <= 0 uses the server default lease; timeout <= 0 uses
// the server default wait bound. ctx cancellation sends a cancel op; if
// the grant wins the race anyway, the lock is released and ctx.Err()
// returned.
func (c *Conn) Lock(ctx context.Context, key uint64, ttl, timeout time.Duration) (uint64, error) {
	r, err := c.wait(ctx, []uint64{key}, ttl, timeout, false)
	if err != nil {
		return 0, err
	}
	// GRANT <id> <key> <token> <ttl>
	if r.n != 4 {
		return 0, fmt.Errorf("glsd client: bad GRANT reply %q", r)
	}
	c.noteToken(key, r.num[2])
	return r.num[2], nil
}

// LockMany acquires every key of the batch, waiting in the server's
// queue; the server takes them in its canonical deadlock-free order. It
// returns the fencing token per key.
func (c *Conn) LockMany(ctx context.Context, ttl time.Duration, keys ...uint64) (map[uint64]uint64, error) {
	if len(keys) == 0 {
		return map[uint64]uint64{}, nil
	}
	r, err := c.wait(ctx, keys, ttl, 0, true)
	if err != nil {
		return nil, err
	}
	// GRANTMANY <id> <ttl> <key> <token>...
	tokens, perr := grantPairs(r, 2)
	if perr != nil {
		return nil, perr
	}
	for k, t := range tokens {
		c.noteToken(k, t)
	}
	return tokens, nil
}

// wait runs one asynchronous acquisition to its terminal reply.
func (c *Conn) wait(ctx context.Context, keys []uint64, ttl, timeout time.Duration, many bool) (reply, error) {
	id := c.nextWait.Add(1)
	ch := make(chan reply, 1)
	c.mu.Lock()
	c.waits[id] = ch
	c.mu.Unlock()

	var err error
	if many {
		_, err = c.roundTrip("lockmany", func(b []byte) []byte {
			return appendKeys(appendMillis(appendUint(b, id), clampTTL(ttl)), keys)
		})
	} else {
		_, err = c.roundTrip("wait", func(b []byte) []byte {
			b = appendMillis(appendKey(appendUint(b, id), keys[0]), clampTTL(ttl))
			if timeout > 0 {
				b = appendMillis(b, timeout)
			}
			return b
		})
	}
	if err != nil {
		c.mu.Lock()
		delete(c.waits, id)
		c.mu.Unlock()
		return reply{}, err
	}

	cancelled := false
	ctxDone := ctx.Done()
	for {
		select {
		case r, ok := <-ch:
			if !ok {
				return reply{}, ErrClosed
			}
			switch r.verb {
			case "TIMEOUT":
				return reply{}, ErrTimeout
			case "CANCELLED":
				if cancelled {
					return reply{}, ctx.Err()
				}
				return reply{}, ErrCancelled
			case "GRANT", "GRANTMANY":
				if cancelled {
					// The grant beat the cancel; the caller wanted out, so
					// hand the locks straight back.
					c.releaseWon(r)
					return reply{}, ctx.Err()
				}
				return r, nil
			}
			return reply{}, fmt.Errorf("glsd client: unexpected terminal %q", r)
		case <-ctxDone:
			cancelled = true
			ctxDone = nil // one cancel op, then wait for the terminal reply
			if _, err := c.roundTrip("cancel", func(b []byte) []byte { return appendUint(b, id) }); err != nil {
				return reply{}, err
			}
		}
	}
}

// releaseWon unlocks a grant that arrived after the caller cancelled.
func (c *Conn) releaseWon(r reply) {
	switch r.verb {
	case "GRANT":
		if r.n == 4 {
			_ = c.Unlock(r.num[1])
		}
	case "GRANTMANY":
		if tokens, err := grantPairs(r, 2); err == nil {
			keys := make([]uint64, 0, len(tokens))
			for k := range tokens {
				keys = append(keys, k)
			}
			_, _ = c.UnlockMany(keys...)
		}
	}
}

// clampTTL floors the wire TTL at 0 (server default).
func clampTTL(ttl time.Duration) time.Duration {
	if ttl < 0 {
		return 0
	}
	return ttl
}

// grantPairs decodes a batch grant's alternating key/token fields, which
// follow its first skip fields.
func grantPairs(r reply, skip int) (map[uint64]uint64, error) {
	if len(r.fields) < skip || (len(r.fields)-skip)%2 != 0 {
		return nil, fmt.Errorf("glsd client: bad batch grant %q", r)
	}
	fields := r.fields[skip:]
	tokens := make(map[uint64]uint64, len(fields)/2)
	for i := 0; i < len(fields); i += 2 {
		k, e1 := strconv.ParseUint(fields[i], 0, 64)
		t, e2 := strconv.ParseUint(fields[i+1], 10, 64)
		if e1 != nil || e2 != nil {
			return nil, fmt.Errorf("glsd client: bad key/token pair %q %q", fields[i], fields[i+1])
		}
		tokens[k] = t
	}
	return tokens, nil
}

// TryLockMany attempts the whole batch without waiting: all granted (token
// per key) or ErrBusy with nothing held.
func (c *Conn) TryLockMany(ttl time.Duration, keys ...uint64) (map[uint64]uint64, error) {
	if len(keys) == 0 {
		return map[uint64]uint64{}, nil
	}
	r, err := c.roundTrip("trylockmany", func(b []byte) []byte {
		return appendKeys(appendMillis(b, clampTTL(ttl)), keys)
	})
	if err != nil {
		return nil, err
	}
	switch r.verb {
	case "BUSY":
		return nil, ErrBusy
	case "GRANTEDMANY":
		// GRANTEDMANY <ttl> <key> <token>...
		tokens, perr := grantPairs(r, 1)
		if perr != nil {
			return nil, perr
		}
		for k, t := range tokens {
			c.noteToken(k, t)
		}
		return tokens, nil
	}
	return nil, fmt.Errorf("glsd client: unexpected reply %q", r)
}

// Unlock releases a held key.
func (c *Conn) Unlock(key uint64) error {
	r, err := c.roundTrip("unlock", func(b []byte) []byte { return appendKey(b, key) })
	if err != nil {
		return err
	}
	if r.verb != "RELEASED" {
		return fmt.Errorf("glsd client: unexpected reply %q", r)
	}
	return nil
}

// UnlockMany releases a batch, returning how many keys were actually held
// and released (keys already expired are skipped, not errors).
func (c *Conn) UnlockMany(keys ...uint64) (int, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	r, err := c.roundTrip("unlockmany", func(b []byte) []byte { return appendKeys(b, keys) })
	if err != nil {
		return 0, err
	}
	if r.verb != "RELEASEDMANY" || r.n != 1 {
		return 0, fmt.Errorf("glsd client: unexpected reply %q", r)
	}
	return int(r.num[0]), nil
}

// Renew extends a held lease and returns its (unchanged) fencing token.
// ErrExpired means the lease lapsed: the lock is gone, reacquire.
func (c *Conn) Renew(key uint64, ttl time.Duration) (uint64, error) {
	r, err := c.roundTrip("renew", func(b []byte) []byte {
		b = appendKey(b, key)
		if ttl > 0 {
			b = appendMillis(b, ttl)
		}
		return b
	})
	if err != nil {
		return 0, err
	}
	// RENEWED <key> <token> <ttl>
	if r.verb != "RENEWED" || r.n != 3 {
		return 0, fmt.Errorf("glsd client: unexpected reply %q", r)
	}
	return r.num[1], nil
}

// Token asks the server for a fencing bound on key — any session's grants,
// not just this one's: no later grant of key carries a token at or below
// the returned value. While key is live on the server (held, awaited or
// mid-acquisition) that is exactly its latest-minted token; once the
// server has reclaimed the key it is the floor of the key's table stripe,
// which may exceed the key's own last token.
func (c *Conn) Token(key uint64) (uint64, error) {
	r, err := c.roundTrip("token", func(b []byte) []byte { return appendKey(b, key) })
	if err != nil {
		return 0, err
	}
	// TOKEN <key> <token>
	if r.verb != "TOKEN" || r.n != 2 {
		return 0, fmt.Errorf("glsd client: unexpected reply %q", r)
	}
	return r.num[1], nil
}

// Ping round-trips a no-op (liveness, latency probes).
func (c *Conn) Ping() error {
	r, err := c.roundTrip("ping", nil)
	if err != nil {
		return err
	}
	if r.verb != "PONG" {
		return fmt.Errorf("glsd client: unexpected reply %q", r)
	}
	return nil
}

// Stats fetches the server's counters as a name→value map.
func (c *Conn) Stats() (map[string]uint64, error) {
	r, err := c.roundTrip("stats", nil)
	if err != nil {
		return nil, err
	}
	if r.verb != "STATS" {
		return nil, fmt.Errorf("glsd client: unexpected reply %q", r)
	}
	out := make(map[string]uint64, len(r.fields))
	for _, f := range r.fields {
		name, val, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		n, perr := strconv.ParseUint(val, 10, 64)
		if perr != nil {
			continue
		}
		out[name] = n
	}
	return out, nil
}
