// Package client is the Go client for glsd, the GLS lock server (package
// server): a connection speaks the line protocol, demultiplexes
// asynchronous grant/expiry notices from synchronous replies, and keeps
// the session-scoped key→fencing-token map that callers pass to
// token-checking consumers (see FencedStore). A Pool recycles connections
// for callers that want lock-service calls without connection management.
package client

import (
	"bufio"
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

	syncCh chan []string

	mu      sync.Mutex
	waits   map[uint64]chan []string
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
	c := &Conn{
		nc:     nc,
		bw:     bufio.NewWriter(nc),
		syncCh: make(chan []string, 1),
		waits:  make(map[uint64]chan []string),
		tokens: make(map[uint64]uint64),
		done:   make(chan struct{}),
	}
	go c.readLoop(bufio.NewReader(nc))
	fields, err := c.roundTrip("session")
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	if len(fields) != 2 || fields[0] != "SESSION" {
		_ = nc.Close()
		return nil, fmt.Errorf("glsd client: bad session reply %q", strings.Join(fields, " "))
	}
	c.session, _ = strconv.ParseUint(fields[1], 10, 64)
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
	c.wmu.Lock()
	_, _ = c.bw.WriteString("quit\r\n")
	_ = c.bw.Flush()
	c.wmu.Unlock()
	return c.nc.Close()
}

// readLoop demultiplexes server lines: wait-id-bearing verbs and expiry
// notices are asynchronous and route by id; everything else answers the
// single outstanding synchronous request.
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
		line, err := br.ReadString('\n')
		if err != nil {
			c.readErr = err
			return
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "GRANT", "GRANTMANY", "TIMEOUT", "CANCELLED":
			if len(fields) < 2 {
				continue
			}
			id, perr := strconv.ParseUint(fields[1], 10, 64)
			if perr != nil {
				continue
			}
			c.mu.Lock()
			ch := c.waits[id]
			delete(c.waits, id)
			c.mu.Unlock()
			if ch != nil {
				ch <- fields
			}
		case "EXPIRED":
			if len(fields) != 3 {
				continue
			}
			key, e1 := strconv.ParseUint(fields[1], 0, 64)
			tok, e2 := strconv.ParseUint(fields[2], 10, 64)
			c.mu.Lock()
			fn := c.expired
			c.mu.Unlock()
			if fn != nil && e1 == nil && e2 == nil {
				fn(key, tok)
			}
		default:
			select {
			case c.syncCh <- fields:
			case <-time.After(5 * time.Second):
				// A sync line with no round trip pending means the stream
				// is out of step; abandon the connection.
				c.readErr = fmt.Errorf("glsd client: unsolicited reply %q", strings.Join(fields, " "))
				return
			}
		}
	}
}

// writeLine sends one request line.
func (c *Conn) writeLine(parts ...string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for i, p := range parts {
		if i > 0 {
			if err := c.bw.WriteByte(' '); err != nil {
				return err
			}
		}
		if _, err := c.bw.WriteString(p); err != nil {
			return err
		}
	}
	if _, err := c.bw.WriteString("\r\n"); err != nil {
		return err
	}
	return c.bw.Flush()
}

// roundTrip sends one synchronous request and returns its reply fields.
func (c *Conn) roundTrip(parts ...string) ([]string, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	if err := c.writeLine(parts...); err != nil {
		return nil, errors.Join(ErrClosed, err)
	}
	select {
	case fields := <-c.syncCh:
		if fields[0] == "ERR" {
			detail := ""
			if len(fields) > 2 {
				detail = strings.Join(fields[2:], " ")
			}
			code := ""
			if len(fields) > 1 {
				code = fields[1]
			}
			return nil, errForCode(code, detail)
		}
		return fields, nil
	case <-c.done:
		if c.readErr != nil {
			return nil, errors.Join(ErrClosed, c.readErr)
		}
		return nil, ErrClosed
	}
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

func fmtKey(k uint64) string { return "0x" + strconv.FormatUint(k, 16) }
func fmtMillis(d time.Duration) string {
	return strconv.FormatInt(d.Milliseconds(), 10)
}

// TryLock attempts key without waiting. On success it returns the grant's
// fencing token; a held key returns ErrBusy. ttl <= 0 uses the server
// default.
func (c *Conn) TryLock(key uint64, ttl time.Duration) (uint64, error) {
	req := []string{"trylock", fmtKey(key)}
	if ttl > 0 {
		req = append(req, fmtMillis(ttl))
	}
	fields, err := c.roundTrip(req...)
	if err != nil {
		return 0, err
	}
	switch fields[0] {
	case "BUSY":
		return 0, ErrBusy
	case "GRANTED":
		if len(fields) != 4 {
			return 0, fmt.Errorf("glsd client: bad GRANTED reply")
		}
		tok, perr := strconv.ParseUint(fields[2], 10, 64)
		if perr != nil {
			return 0, fmt.Errorf("glsd client: bad token in GRANTED reply")
		}
		c.noteToken(key, tok)
		return tok, nil
	}
	return 0, fmt.Errorf("glsd client: unexpected reply %q", strings.Join(fields, " "))
}

// Lock acquires key, waiting in the server's queue. It returns the grant's
// fencing token. ttl <= 0 uses the server default lease; timeout <= 0 uses
// the server default wait bound. ctx cancellation sends a cancel op; if
// the grant wins the race anyway, the lock is released and ctx.Err()
// returned.
func (c *Conn) Lock(ctx context.Context, key uint64, ttl, timeout time.Duration) (uint64, error) {
	fields, err := c.wait(ctx, []uint64{key}, ttl, timeout, false)
	if err != nil {
		return 0, err
	}
	// GRANT <id> <key> <token> <ttl>
	if len(fields) != 5 {
		return 0, fmt.Errorf("glsd client: bad GRANT reply")
	}
	tok, perr := strconv.ParseUint(fields[3], 10, 64)
	if perr != nil {
		return 0, fmt.Errorf("glsd client: bad token in GRANT reply")
	}
	c.noteToken(key, tok)
	return tok, nil
}

// LockMany acquires every key of the batch, waiting in the server's
// queue; the server takes them in its canonical deadlock-free order. It
// returns the fencing token per key.
func (c *Conn) LockMany(ctx context.Context, ttl time.Duration, keys ...uint64) (map[uint64]uint64, error) {
	if len(keys) == 0 {
		return map[uint64]uint64{}, nil
	}
	fields, err := c.wait(ctx, keys, ttl, 0, true)
	if err != nil {
		return nil, err
	}
	// GRANTMANY <id> <ttl> <key> <token>...
	tokens, perr := parseTokenPairs(fields[3:])
	if perr != nil {
		return nil, perr
	}
	for k, t := range tokens {
		c.noteToken(k, t)
	}
	return tokens, nil
}

// wait runs one asynchronous acquisition to its terminal reply.
func (c *Conn) wait(ctx context.Context, keys []uint64, ttl, timeout time.Duration, many bool) ([]string, error) {
	id := c.nextWait.Add(1)
	ch := make(chan []string, 1)
	c.mu.Lock()
	c.waits[id] = ch
	c.mu.Unlock()

	var req []string
	if many {
		req = []string{"lockmany", strconv.FormatUint(id, 10), fmtMillis(clampTTL(ttl))}
		for _, k := range keys {
			req = append(req, fmtKey(k))
		}
	} else {
		req = []string{"wait", strconv.FormatUint(id, 10), fmtKey(keys[0]), fmtMillis(clampTTL(ttl))}
		if timeout > 0 {
			req = append(req, fmtMillis(timeout))
		}
	}
	if _, err := c.roundTrip(req...); err != nil {
		c.mu.Lock()
		delete(c.waits, id)
		c.mu.Unlock()
		return nil, err
	}

	cancelled := false
	ctxDone := ctx.Done()
	for {
		select {
		case fields, ok := <-ch:
			if !ok {
				return nil, ErrClosed
			}
			switch fields[0] {
			case "TIMEOUT":
				return nil, ErrTimeout
			case "CANCELLED":
				if cancelled {
					return nil, ctx.Err()
				}
				return nil, ErrCancelled
			case "GRANT", "GRANTMANY":
				if cancelled {
					// The grant beat the cancel; the caller wanted out, so
					// hand the locks straight back.
					c.releaseWon(fields)
					return nil, ctx.Err()
				}
				return fields, nil
			}
			return nil, fmt.Errorf("glsd client: unexpected terminal %q", strings.Join(fields, " "))
		case <-ctxDone:
			cancelled = true
			ctxDone = nil // one cancel op, then wait for the terminal reply
			if _, err := c.roundTrip("cancel", strconv.FormatUint(id, 10)); err != nil {
				return nil, err
			}
		}
	}
}

// releaseWon unlocks a grant that arrived after the caller cancelled.
func (c *Conn) releaseWon(fields []string) {
	switch fields[0] {
	case "GRANT":
		if len(fields) == 5 {
			if key, err := strconv.ParseUint(fields[2], 0, 64); err == nil {
				_ = c.Unlock(key)
			}
		}
	case "GRANTMANY":
		if tokens, err := parseTokenPairs(fields[3:]); err == nil {
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

// parseTokenPairs decodes alternating key/token fields.
func parseTokenPairs(fields []string) (map[uint64]uint64, error) {
	if len(fields)%2 != 0 {
		return nil, fmt.Errorf("glsd client: odd key/token pair count")
	}
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
	req := []string{"trylockmany", fmtMillis(clampTTL(ttl))}
	for _, k := range keys {
		req = append(req, fmtKey(k))
	}
	fields, err := c.roundTrip(req...)
	if err != nil {
		return nil, err
	}
	switch fields[0] {
	case "BUSY":
		return nil, ErrBusy
	case "GRANTEDMANY":
		tokens, perr := parseTokenPairs(fields[2:])
		if perr != nil {
			return nil, perr
		}
		for k, t := range tokens {
			c.noteToken(k, t)
		}
		return tokens, nil
	}
	return nil, fmt.Errorf("glsd client: unexpected reply %q", strings.Join(fields, " "))
}

// Unlock releases a held key.
func (c *Conn) Unlock(key uint64) error {
	fields, err := c.roundTrip("unlock", fmtKey(key))
	if err != nil {
		return err
	}
	if fields[0] != "RELEASED" {
		return fmt.Errorf("glsd client: unexpected reply %q", strings.Join(fields, " "))
	}
	return nil
}

// UnlockMany releases a batch, returning how many keys were actually held
// and released (keys already expired are skipped, not errors).
func (c *Conn) UnlockMany(keys ...uint64) (int, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	req := []string{"unlockmany"}
	for _, k := range keys {
		req = append(req, fmtKey(k))
	}
	fields, err := c.roundTrip(req...)
	if err != nil {
		return 0, err
	}
	if fields[0] != "RELEASEDMANY" || len(fields) != 2 {
		return 0, fmt.Errorf("glsd client: unexpected reply %q", strings.Join(fields, " "))
	}
	n, perr := strconv.Atoi(fields[1])
	if perr != nil {
		return 0, fmt.Errorf("glsd client: bad RELEASEDMANY count")
	}
	return n, nil
}

// Renew extends a held lease and returns its (unchanged) fencing token.
// ErrExpired means the lease lapsed: the lock is gone, reacquire.
func (c *Conn) Renew(key uint64, ttl time.Duration) (uint64, error) {
	req := []string{"renew", fmtKey(key)}
	if ttl > 0 {
		req = append(req, fmtMillis(ttl))
	}
	fields, err := c.roundTrip(req...)
	if err != nil {
		return 0, err
	}
	if fields[0] != "RENEWED" || len(fields) != 4 {
		return 0, fmt.Errorf("glsd client: unexpected reply %q", strings.Join(fields, " "))
	}
	tok, perr := strconv.ParseUint(fields[2], 10, 64)
	if perr != nil {
		return 0, fmt.Errorf("glsd client: bad token in RENEWED reply")
	}
	return tok, nil
}

// Token asks the server for a fencing bound on key — any session's grants,
// not just this one's: no later grant of key carries a token at or below
// the returned value. While key is live on the server (held, awaited or
// mid-acquisition) that is exactly its latest-minted token; once the
// server has reclaimed the key it is the floor of the key's table stripe,
// which may exceed the key's own last token.
func (c *Conn) Token(key uint64) (uint64, error) {
	fields, err := c.roundTrip("token", fmtKey(key))
	if err != nil {
		return 0, err
	}
	if fields[0] != "TOKEN" || len(fields) != 3 {
		return 0, fmt.Errorf("glsd client: unexpected reply %q", strings.Join(fields, " "))
	}
	return strconv.ParseUint(fields[2], 10, 64)
}

// Ping round-trips a no-op (liveness, latency probes).
func (c *Conn) Ping() error {
	fields, err := c.roundTrip("ping")
	if err != nil {
		return err
	}
	if fields[0] != "PONG" {
		return fmt.Errorf("glsd client: unexpected reply %q", strings.Join(fields, " "))
	}
	return nil
}

// Stats fetches the server's counters as a name→value map.
func (c *Conn) Stats() (map[string]uint64, error) {
	fields, err := c.roundTrip("stats")
	if err != nil {
		return nil, err
	}
	if fields[0] != "STATS" {
		return nil, fmt.Errorf("glsd client: unexpected reply %q", strings.Join(fields, " "))
	}
	out := make(map[string]uint64, len(fields)-1)
	for _, f := range fields[1:] {
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
