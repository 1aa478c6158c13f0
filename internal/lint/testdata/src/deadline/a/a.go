// Package a exercises the deadline analyzer: unguarded conn I/O,
// accept loops and bare net.Dial.
package a

import (
	"net"
	"time"
)

type Conn struct{}

func (Conn) Read(b []byte) (int, error)    { return 0, nil }
func (Conn) Write(b []byte) (int, error)   { return 0, nil }
func (Conn) SetDeadline(t time.Time) error { return nil }

type Listener struct{}

func (Listener) Accept() (Conn, error) { return Conn{}, nil }

func badRead(c Conn) {
	var b [8]byte
	c.Read(b[:]) // want `c.Read has no preceding SetDeadline`
}

func goodRead(c Conn) {
	c.SetDeadline(time.Now().Add(time.Second))
	var b [8]byte
	c.Read(b[:])
}

// timerBounded uses the mux's kill-on-timeout pattern instead of a
// socket deadline: accepted.
func timerBounded(c Conn) {
	t := time.NewTimer(time.Second)
	defer t.Stop()
	var b [8]byte
	c.Read(b[:])
}

func badAcceptLoop(l Listener) {
	for {
		l.Accept() // want `accept loop has no backoff`
	}
}

func goodAcceptLoop(l Listener) {
	for {
		if _, err := l.Accept(); err != nil {
			time.Sleep(time.Millisecond)
		}
	}
}

// acceptOnce delegates a single Accept: a wrapper, not a loop.
func acceptOnce(l Listener) (Conn, error) {
	return l.Accept()
}

func badDial() {
	net.Dial("tcp", "localhost:1") // want `net\.Dial has no connect timeout`
}

func goodDial() {
	net.DialTimeout("tcp", "localhost:1", time.Second)
}

// loggedConn embeds a conn-like type: a wrapper whose caller owns the
// deadline, so its delegating methods are exempt.
type loggedConn struct {
	Conn
}

func (l loggedConn) Read(b []byte) (int, error) {
	return l.Conn.Read(b)
}
