package client

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// TestUnsolicitedReplyAbandonsConn feeds the read loop a synchronous line
// that no request asked for. The Conn must be abandoned at once — not after
// a grace period — and the stray line must never be paired with a later
// request.
func TestUnsolicitedReplyAbandonsConn(t *testing.T) {
	cli, srv := net.Pipe()
	t.Cleanup(func() { _ = cli.Close(); _ = srv.Close() })
	requests := make(chan string, 16)
	go func() {
		defer close(requests)
		br := bufio.NewReader(srv)
		if line, err := br.ReadString('\n'); err != nil || line != "session\r\n" {
			t.Errorf("first request %q, %v; want session", line, err)
			_ = srv.Close()
			return
		}
		// net.Pipe is unbuffered: each Write returns only once the client's
		// read loop has taken the bytes, so the stray line goes out after the
		// loop has drained the SESSION reply and handed it over.
		_, _ = srv.Write([]byte("SESSION 1\r\n"))
		_, _ = srv.Write([]byte("PONG\r\n"))
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			requests <- strings.TrimSpace(line)
		}
	}()
	c, err := newConn(cli)
	if err != nil {
		t.Fatalf("newConn: %v", err)
	}
	select {
	case <-c.done:
	case <-time.After(time.Second):
		t.Fatal("read loop still running a second after an unsolicited reply")
	}
	if err := c.Ping(); !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "unsolicited") {
		t.Fatalf("Ping after an unsolicited reply: %v, want ErrClosed naming it", err)
	}
	_ = cli.Close()
	for req := range requests {
		t.Errorf("request %q written to an abandoned connection", req)
	}
}
