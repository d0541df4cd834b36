package server

import (
	"testing"
	"time"
)

// waitStats polls srv's counters until cond holds, for at most five
// seconds.
func waitStats(t *testing.T, srv *Server, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if cond(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server stats never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertExactHeap checks that the lease heap holds exactly the live
// leases: one entry per held grant, no record of a released one.
func assertExactHeap(t *testing.T, srv *Server, held int64) {
	t.Helper()
	st := srv.Stats()
	if st.Held != held || int64(st.Leases) != st.Held {
		t.Fatalf("held %d, lease heap %d; want both %d", st.Held, st.Leases, held)
	}
}

// TestLeaseHeapExact pins the lease heap to the live leases: released,
// renewed and expired grants leave no stale records behind, and a renewed
// lease or a torn-down session's lease still expires exactly once.
func TestLeaseHeapExact(t *testing.T) {
	srv, err := New(Options{SweepInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	c := pipeT(t, srv)

	keys := make([]uint64, 1<<12)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	pairs(c, keys)
	assertExactHeap(t, srv, 0)

	// Renew re-keys the lease in place; unlock takes it out.
	c.send("trylock 7 60000\r\n")
	c.expect("GRANTED 0x7")
	for i := 0; i < 3; i++ {
		c.send("renew 7 60000\r\n")
		c.expect("RENEWED 0x7")
	}
	assertExactHeap(t, srv, 1)
	c.send("unlock 7\r\n")
	c.expect("RELEASED 0x7")
	assertExactHeap(t, srv, 0)

	// A renewed lease expires once, at its renewed deadline.
	st0 := srv.Stats()
	c.send("trylock 8 200\r\n")
	tok := tokenOf(t, c.expect("GRANTED 0x8"), 2)
	c.send("renew 8 300\r\n")
	c.expect("RENEWED 0x8")
	if got := tokenOf(t, c.expect("EXPIRED 0x8"), 2); got != tok {
		t.Fatalf("EXPIRED names token %d, want %d", got, tok)
	}
	time.Sleep(50 * time.Millisecond) // several sweeps past the first deadline
	c.send("ping\r\n")
	c.expect("PONG") // no second EXPIRED ahead of it
	if n := srv.Stats().Expiries - st0.Expiries; n != 1 {
		t.Fatalf("renewed lease expired %d times, want once", n)
	}
	assertExactHeap(t, srv, 0)

	// Teardown clamps a (renewed) lease to now; the sweep releases it once.
	d := pipeT(t, srv)
	d.send("trylock 9 60000\r\n")
	d.expect("GRANTED 0x9")
	d.send("renew 9 60000\r\n")
	d.expect("RENEWED 0x9")
	st1 := srv.Stats()
	_ = d.nc.Close()
	waitStats(t, srv, func(st Stats) bool { return st.Held == 0 })
	time.Sleep(50 * time.Millisecond)
	st := srv.Stats()
	if n := st.Expiries - st1.Expiries; n != 1 {
		t.Fatalf("torn-down session's lease expired %d times, want once", n)
	}
	if st.Disconnects-st1.Disconnects != 1 {
		t.Fatalf("disconnects %d, want 1", st.Disconnects-st1.Disconnects)
	}
	assertExactHeap(t, srv, 0)
}
