package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gls"
	"gls/client"
	"gls/glk"
	"gls/locks"
	"gls/server"
	"gls/telemetry"
)

// The layer ladder costs the same uncontended acquire/release pair at
// each layer, from one goroutine: a ticket lock, a glk lock, the gls
// Service, a gls Handle, glsd over an in-memory pipe, glsd over loopback
// TCP, and the Go client over loopback TCP. The difference between
// consecutive rungs is that layer's own uncontended cost.
const (
	rungReps   = 3
	rungWindow = 100 * time.Millisecond
	freeKeys   = 1 << 16
)

// rung times op for rungReps windows of rungWindow and records the median
// time per op (in unit, scaled from ns by div) and allocations per op.
func rung(r *report, timeName, allocName, unit string, div float64, op func() error) float64 {
	var per, allocs []float64
	var total int64
	for rep := 0; rep < rungReps; rep++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := now()
		var n int64
		for now()-t0 < int64(rungWindow) {
			for j := 0; j < 64; j++ {
				if err := op(); err != nil {
					r.check(false, "ladder %s: %v", timeName, err)
					return 0
				}
			}
			n += 64
		}
		el := now() - t0
		runtime.ReadMemStats(&m1)
		per = append(per, float64(el)/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
		total += n
	}
	ns := median(per)
	r.set(timeName, unit, ns/div, total)
	r.set(allocName, "count", median(allocs), total)
	return ns
}

// pipeListener hands the server ends of in-memory pipes to Server.Serve.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial returns the client end of a new pipe whose server end Accept
// delivers.
func (l *pipeListener) dial() (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		_ = c.Close()
		_ = s.Close()
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// rawConn speaks the line protocol directly: no client library, so the
// rung costs the server and the transport alone.
type rawConn struct {
	c            net.Conn
	br           *bufio.Reader
	lock, unlock []byte
}

func newRawConn(c net.Conn, key uint64) *rawConn {
	k := "0x" + strconv.FormatUint(key, 16)
	return &rawConn{
		c:      c,
		br:     bufio.NewReader(c),
		lock:   []byte("trylock " + k + " 1000\r\n"),
		unlock: []byte("unlock " + k + "\r\n"),
	}
}

func (rc *rawConn) call(req []byte, want string) error {
	if _, err := rc.c.Write(req); err != nil {
		return err
	}
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(line, []byte(want)) {
		return fmt.Errorf("reply %q, want %s", bytes.TrimSpace(line), want)
	}
	return nil
}

func (rc *rawConn) pair() error {
	if err := rc.call(rc.lock, "GRANTED"); err != nil {
		return err
	}
	return rc.call(rc.unlock, "RELEASED")
}

// runLadder runs every rung in order and records the marginal cost of
// each layer in the report.
func runLadder(cfg config, r *report) {
	key := keyOf(cfg.seed, 1<<31)

	var t locks.TicketCore
	ticket := rung(r, "locks.ticket.pair_ns", "locks.ticket.allocs_per_op", "ns", 1, func() error {
		t.Lock()
		t.Unlock()
		return nil
	})
	g := glk.New(nil)
	glkNs := rung(r, "glk.pair_ns", "glk.allocs_per_op", "ns", 1, func() error {
		g.Lock()
		g.Unlock()
		return nil
	})
	rw := glk.NewRW(nil)
	rung(r, "glk.rw.read_pair_ns", "glk.rw.read_allocs_per_op", "ns", 1, func() error {
		rw.RLock()
		rw.RUnlock()
		return nil
	})
	svc := gls.New(gls.Options{})
	svc.InitLock(key)
	svcNs := rung(r, "gls.service.pair_ns", "gls.service.allocs_per_op", "ns", 1, func() error {
		svc.Lock(key)
		svc.Unlock(key)
		return nil
	})
	h := svc.NewHandle()
	rung(r, "gls.handle.pair_ns", "gls.handle.allocs_per_op", "ns", 1, func() error {
		h.Lock(key)
		h.Unlock(key)
		return nil
	})
	svc.Close()
	createFree(cfg, r)

	pipeNs, tcpNs, clientNs := wireRungs(r, key)
	r.set("ladder.glk_over_ticket_ns", "ns", glkNs-ticket, 1)
	r.set("ladder.service_over_glk_ns", "ns", svcNs-glkNs, 1)
	r.set("ladder.server_pipe_over_service_ns", "ns", pipeNs-svcNs, 1)
	r.set("ladder.tcp_over_pipe_ns", "ns", tcpNs-pipeNs, 1)
	r.set("ladder.client_over_tcp_ns", "ns", clientNs-tcpNs, 1)
}

// createFree costs key creation (InitLock on a fresh key), the bytes each
// created key retains, and Free, over freeKeys keys of a fresh service.
func createFree(cfg config, r *report) {
	keys := make([]uint64, freeKeys)
	for i := range keys {
		keys[i] = keyOf(cfg.seed+1, uint64(i))
	}
	var create, free, bytesPer []float64
	for rep := 0; rep < rungReps; rep++ {
		svc := gls.New(gls.Options{})
		h0 := liveHeap()
		t0 := now()
		for _, k := range keys {
			svc.InitLock(k)
		}
		t1 := now()
		h1 := liveHeap()
		t2 := now()
		for _, k := range keys {
			svc.Free(k)
		}
		t3 := now()
		r.check(svc.Locks() == 0, "ladder: %d keys still mapped after Free", svc.Locks())
		svc.Close()
		create = append(create, float64(t1-t0)/freeKeys)
		free = append(free, float64(t3-t2)/freeKeys)
		bytesPer = append(bytesPer, float64(int64(h1)-int64(h0))/freeKeys)
	}
	r.set("gls.create_ns", "ns", median(create), rungReps*freeKeys)
	r.set("gls.free_ns", "ns", median(free), rungReps*freeKeys)
	r.set("gls.bytes_per_key", "B", median(bytesPer), rungReps*freeKeys)
}

// wireRungs runs the three glsd rungs against one server built as
// cmd/glsd builds it by default, and returns their ns per pair.
func wireRungs(r *report, key uint64) (pipeNs, tcpNs, clientNs float64) {
	srv, err := server.New(server.Options{Service: gls.Options{Telemetry: telemetry.New(telemetry.Options{})}})
	if err != nil {
		r.check(false, "ladder: server: %v", err)
		return
	}
	pl := newPipeListener()
	tl, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		r.check(false, "ladder: listen: %v", err)
		return
	}
	served := make(chan error, 2)
	go func() { served <- srv.Serve(pl) }()
	go func() { served <- srv.Serve(tl) }()
	defer func() {
		srv.Close()
		_ = pl.Close()
		<-served
		<-served
	}()

	pc, err := pl.dial()
	if err != nil {
		r.check(false, "ladder: pipe: %v", err)
		return
	}
	defer pc.Close()
	pipe := newRawConn(pc, key)
	pipeNs = rung(r, "server.pipe_pair_us", "server.pipe_allocs_per_op", "us", 1e3, pipe.pair)

	tc, err := net.Dial("tcp", tl.Addr().String())
	if err != nil {
		r.check(false, "ladder: tcp: %v", err)
		return
	}
	defer tc.Close()
	raw := newRawConn(tc, key)
	tcpNs = rung(r, "server.tcp_pair_us", "server.tcp_allocs_per_op", "us", 1e3, raw.pair)

	cc, err := client.Dial(tl.Addr().String())
	if err != nil {
		r.check(false, "ladder: client: %v", err)
		return
	}
	defer cc.Close()
	clientNs = rung(r, "client.pair_us", "client.allocs_per_op", "us", 1e3, func() error {
		if _, err := cc.TryLock(key, time.Second); err != nil {
			return err
		}
		return cc.Unlock(key)
	})
	return
}
