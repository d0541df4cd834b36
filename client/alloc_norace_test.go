//go:build !race

package client

import (
	"net"
	"sync"
	"testing"
	"time"

	"gls/server"
)

// pipeListener hands the server ends of in-memory pipes to Server.Serve.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
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

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// pairAllocs is the pinned allocation count of one TryLock+Unlock pair,
// client and server together. The client and both codecs allocate nothing;
// what remains is the server's per-grant record and the lock service
// creating and freeing the key's lock, since the key is idle between pairs.
const pairAllocs = 3

// TestTryLockUnlockAllocs pins the allocations of one client TryLock+Unlock
// pair against an in-process server over net.Pipe (no kernel socket).
func TestTryLockUnlockAllocs(t *testing.T) {
	srv, err := server.New(server.Options{})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		_ = ln.Close()
		<-served
	})
	cli, end := net.Pipe()
	ln.conns <- end
	c, err := newConn(cli)
	if err != nil {
		t.Fatalf("newConn: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })

	const key = 0x5eed
	pair := func() {
		if _, err := c.TryLock(key, time.Second); err != nil {
			t.Fatalf("TryLock: %v", err)
		}
		if err := c.Unlock(key); err != nil {
			t.Fatalf("Unlock: %v", err)
		}
	}
	pair() // first grant sizes the client's token map
	if got := testing.AllocsPerRun(2000, pair); got != pairAllocs {
		t.Errorf("TryLock+Unlock pair: %v allocations, want %d", got, pairAllocs)
	}
}
