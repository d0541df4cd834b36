package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"

	"gls"
	"gls/telemetry"
)

// pipeT serves one in-memory connection (net.Pipe, no kernel socket) on srv
// and returns a scripted client for it.
func pipeT(t *testing.T, srv *Server) *tconn {
	t.Helper()
	cli, conn := net.Pipe()
	srv.connWG.Add(1)
	go func() {
		defer srv.connWG.Done()
		srv.handleConn(conn)
	}()
	t.Cleanup(func() { _ = cli.Close() })
	return &tconn{t: t, nc: cli, br: bufio.NewReader(cli)}
}

// liveKeys counts the key table's records.
func liveKeys(kt *keyTable) int {
	n := 0
	for i := range kt.stripes {
		s := &kt.stripes[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// assertQuiescent checks that nothing outlives its last reference: the key
// table, the service's lock map and the telemetry registry are all empty.
func assertQuiescent(t *testing.T, srv *Server, reg *telemetry.Registry) {
	t.Helper()
	if n := liveKeys(srv.keys); n != 0 {
		t.Errorf("key table holds %d records at quiescence, want 0", n)
	}
	if n := srv.Service().Locks(); n != 0 {
		t.Errorf("service holds %d locks at quiescence, want 0", n)
	}
	if n := reg.Len(); n != 0 {
		t.Errorf("telemetry registry holds %d stats at quiescence, want 0", n)
	}
}

// pairs drives trylock+unlock over keys, pipelined: a writer goroutine
// streams the requests while the caller reads the replies in order (net.Pipe
// is unbuffered, so reading and writing must overlap). It returns each
// key's granted token.
func pairs(c *tconn, keys []uint64) []uint64 {
	c.t.Helper()
	errc := make(chan error, 1)
	go func() {
		var b strings.Builder
		for i, k := range keys {
			fmt.Fprintf(&b, "trylock %d\r\nunlock %d\r\n", k, k)
			if i%256 == 255 || i == len(keys)-1 {
				if _, err := c.nc.Write([]byte(b.String())); err != nil {
					errc <- err
					return
				}
				b.Reset()
			}
		}
		errc <- nil
	}()
	tokens := make([]uint64, len(keys))
	for i, k := range keys {
		tokens[i] = tokenOf(c.t, c.expect("GRANTED "+fmtKey(k)), 2)
		c.expect("RELEASED " + fmtKey(k))
	}
	if err := <-errc; err != nil {
		c.t.Fatalf("pipelined write: %v", err)
	}
	return tokens
}

// TestKeyTableReclaimsAtZero is the bounded-memory check of glsd's key
// lifecycle: after trylock/unlock over 2^17 distinct keys, nothing of any
// key survives — no key-table record, no service lock, no telemetry stats —
// while fencing tokens stay strictly increasing per key across
// reclamation, through the stripe floor.
func TestKeyTableReclaimsAtZero(t *testing.T) {
	reg := telemetry.New(telemetry.Options{})
	srv, err := New(Options{Service: gls.Options{Telemetry: reg}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	c := pipeT(t, srv)

	const distinct = 1 << 17
	keys := make([]uint64, distinct)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	first := pairs(c, keys)
	assertQuiescent(t, srv, reg)

	// Revisit the keys (a stride of them under -short): each reincarnation
	// is born at its stripe's floor, which covers the key's own last token.
	stride := 1
	if testing.Short() {
		stride = 16
	}
	var revisit, prev []uint64
	for i := 0; i < distinct; i += stride {
		revisit = append(revisit, keys[i])
		prev = append(prev, first[i])
	}
	again := pairs(c, revisit)
	for i, k := range revisit {
		if again[i] <= prev[i] {
			t.Fatalf("key %#x: token %d after reclamation, not above %d", k, again[i], prev[i])
		}
	}
	assertQuiescent(t, srv, reg)

	// A key whose stripe-mates moved the floor while it was absent.
	const key, mate = 3, 3 + keyStripes // same stripe: (k ^ k>>32) % keyStripes
	if srv.keys.stripe(key) != srv.keys.stripe(mate) {
		t.Fatal("test keys are not stripe-mates")
	}
	tok1 := pairs(c, []uint64{key})[0]
	c.send("token 3\r\n")
	floor1 := tokenOf(t, c.expect("TOKEN 0x3"), 2)
	if floor1 < tok1 {
		t.Fatalf("TOKEN of a reclaimed key = %d, below its last grant %d", floor1, tok1)
	}
	mateToks := pairs(c, []uint64{mate, mate, mate, mate, mate})
	c.send("token 3\r\n")
	floor2 := tokenOf(t, c.expect("TOKEN 0x3"), 2)
	if floor2 < mateToks[4] {
		t.Fatalf("TOKEN of an absent key = %d, below its stripe-mate's grant %d", floor2, mateToks[4])
	}
	c.send("trylock 3\r\n")
	tok2 := tokenOf(t, c.expect("GRANTED 0x3"), 2)
	if tok2 <= floor2 || tok2 <= tok1 {
		t.Fatalf("reincarnated key minted %d, want above floor %d and its last token %d", tok2, floor2, tok1)
	}
	// While the key is live, TOKEN is exact.
	c.send("token 3\r\n")
	if cur := tokenOf(t, c.expect("TOKEN 0x3"), 2); cur != tok2 {
		t.Fatalf("TOKEN of a held key = %d, want its grant %d", cur, tok2)
	}
	if n := liveKeys(srv.keys); n != 1 {
		t.Fatalf("key table holds %d records with one key held, want 1", n)
	}
	c.send("unlock 3\r\n")
	c.expect("RELEASED 0x3")
	assertQuiescent(t, srv, reg)
}
